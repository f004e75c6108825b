"""Exact kernel computation for large structured integer systems.

Guessing systems come as a ``ShiftSystem``: the m integer sequences
they are made of and a column count, column c reading sequence c mod m
at shift c // m.  Modulo a prime each sequence is reduced once, and no
matrix is ever formed.  Every entry is an integer, so every prime reduces the system;
a prime that divides many entries is just an unlucky prime.
``ShiftSystem.times`` is the one exact product of shifted sequences
with a vector: the guessers' residuals, ``series.apply_op`` and the
algebraic check P(z, f) = O(z^n) all run on it, over Z.

Strategy: one mod-p engine, an order basis of the Hermite-Pade problem
(``_order_basis``): m residual rows, one step per row of the system,
each row optionally carrying its polynomial vector in the same int64
array.  The columns are degree-major by construction, so every system,
and every column prefix of one, is a box of approximant degrees.  The
guesser's probe reads the rank profile of its whole degree-capped
system from it at one prime below 2^26 (``kernel_rank_mod_p``).  A
trivial kernel modulo any prime proves a trivial kernel over Q, which
makes "no operator of this shape exists" conclusions rigorous.  When a kernel
exists, each prime's canonical kernel vector (first free column set to
1, every later one 0) is the basis row with the smallest leading index
(``kernel_vector_exact``); the vectors are combined by CRT over several
primes with rational reconstruction.  Each reconstructed candidate gets
one exact check inside the CRT loop, the caller's residual, which covers
every row of the system; a candidate that fails it brings in one more
prime, and only vectors that pass it are ever returned, so candidate
generation never affects soundness.  Reduction is delayed (Dumas,
Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 2008): the pivot column and
row are reduced before use, and the rest only once every 2^11 or more
updates, since each update subtracts less than p^2 < 2^52.
When the primes run out, the exact answer is the first dependence
among the columns by fraction-free Bareiss elimination over Z
(``_first_dependence``).  The same elimination over Z[z] gives the
operator cofactor ``ore._cofactor``, on which ``ore.lclm`` and
``minimize.certify_annihilates`` both run, and the inverse of dP/dy and
the dependence of the root's derivatives in
``algebraic.annihilator_of_roots``.

The rank of a polynomial matrix over F_p(z) (the p-curvature) is the
largest rank that the same order basis finds at sample points, and
small eliminations over Q(z) run fraction-free over Z[z].
"""

from __future__ import annotations

import copy
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .polys import _zeval_mod, _zexquo, _zmul, _zratrecon, _zsub
from .rationals import QQ, cleared

# the 60 largest primes below 2^26: a product of two residues is below
# 2^52, so int64 holds at least 2^11 of them before a reduction (see
# ``_reduction_period``); their product has 1560 bits
_PRIMES = [
    67108859, 67108837, 67108819, 67108777, 67108763,
    67108757, 67108753, 67108747, 67108739, 67108729,
    67108721, 67108709, 67108693, 67108669, 67108667,
    67108661, 67108649, 67108633, 67108597, 67108579,
    67108529, 67108511, 67108507, 67108493, 67108471,
    67108463, 67108453, 67108439, 67108387, 67108373,
    67108369, 67108351, 67108331, 67108313, 67108303,
    67108289, 67108271, 67108219, 67108207, 67108201,
    67108199, 67108187, 67108183, 67108177, 67108127,
    67108109, 67108081, 67108049, 67108039, 67108037,
    67108033, 67108009, 67108007, 67108003, 67107983,
    67107977, 67107967, 67107941, 67107919, 67107913,
]


class ShiftSystem:
    """A matrix given by its integer sequences, laid out as a
    degree-major box: column c reads sequence c mod m at shift c // m,
    m = len(seqs), so its entry at row r is seqs[c mod m][r - c // m],
    zero outside the sequence.  Every column prefix is again such a box,
    the one layout the order basis accepts.

    Guessing systems have this block-Toeplitz shape: row n of the
    Hermite-Pade system of an operator is the z^n coefficient of
    sum c_ij z^j f^(i), so column (i, j) is f^(i) shifted by j; the
    guessers build it over a multiple of f with integer terms, which has
    the same kernel.  Modulo p, each sequence is reduced once
    (``_residues``), and the order basis (``_order_basis``) that gives
    both the probe's pivot columns and every prime's kernel vector reads
    these residues as they are: the matrix is never formed.  Entries must
    be integers (TypeError otherwise): numpy would silently truncate a
    rational residue; a negative column count, or columns without
    sequences, is a ValueError.  The system is also a sequence of its
    integer rows (``len``, indexing, iteration, which stops at the
    IndexError past the last row), which the exact fallback reads.
    """

    __slots__ = ("seqs", "ncols", "nrows", "_residues")

    def __init__(self, seqs: Sequence[Sequence[int]], ncols: int, nrows: int):
        if not all(isinstance(c, int) for seq in seqs for c in seq):
            raise TypeError("ShiftSystem entries must be integers")
        if ncols < 0 or (ncols and not seqs):
            raise ValueError("%d columns over %d sequences" % (ncols, len(seqs)))
        self.seqs = seqs
        self.ncols = ncols
        self.nrows = nrows
        # p -> residue table; shared with every prefix of the system
        self._residues: Dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.nrows

    def __getitem__(self, r: int) -> List[int]:
        if not 0 <= r < self.nrows:
            raise IndexError(r)
        m = len(self.seqs)
        row = []
        for c in range(self.ncols):
            seq, k = self.seqs[c % m], c // m
            row.append(seq[r - k] if 0 <= r - k < len(seq) else 0)
        return row

    def prefix(self, ncols: int) -> "ShiftSystem":
        """The first ncols columns, sharing the residues."""
        sub = copy.copy(self)
        sub.ncols = ncols
        return sub

    def times(self, vec: Sequence) -> List:
        """The exact product with a vector: one value per row.  Each
        column adds v times its sequence to rows k.. as one slice."""
        out = [0] * self.nrows
        m = len(self.seqs)
        for c, v in zip(range(self.ncols), vec):
            if v:
                seq, k = self.seqs[c % m], c // m
                end = min(self.nrows, k + len(seq))
                out[k:end] = [o + v * x for o, x in zip(out[k:end], seq)]
        return out

    def _table(self, p: int) -> np.ndarray:
        table = self._residues.get(p)
        if table is None:
            table = self._residues[p] = self._reduce(p)
        return table

    def _reduce(self, p: int) -> np.ndarray:
        """Row s holds seqs[s][:nrows] mod p, then zeros."""
        table = np.zeros((len(self.seqs), self.nrows), dtype=np.int64)
        for s, seq in enumerate(self.seqs):
            head = seq[:self.nrows]
            table[s, :len(head)] = list(map(p.__rmod__, head))
        return table


def _reduction_period(p: int) -> int:
    """The most row updates an int64 entry takes between reductions mod
    p: the largest k with k (p-1)^2 + (p-1) < 2^63.  At least 2^11 for
    p < 2^26, 2 or 1 for primes near 2^31."""
    k = (2 ** 63 - p) // (p - 1) ** 2
    if k < 1:
        raise ValueError("prime %d too large for int64 residues" % p)
    return k


def _order_basis(system: ShiftSystem, p: int, width: int) -> Tuple[List[int], Optional[List[int]]]:
    """(pivot columns ascending, canonical kernel vector of the first
    ``width`` columns or None) mod p of a system, whose columns form a
    degree-major box: column c is (c mod m, c // m), m = len(system.seqs).

    A kernel vector is a polynomial vector (P_0, ..., P_{m-1}) with
    sum P_i S_i = O(z^nrows), S_i the i-th sequence, and its last nonzero
    column j m + i is its leading index (degree j, position i).  The order
    basis (Beckermann and Labahn, SIAM J. Matrix Anal. Appl. 1994) keeps
    one row per position: its residual and, in the first ``width``
    columns, its polynomial vector, side by side in one int64 array.  Row
    a starts as S_a and the unit vector at column a, with leading index a.
    Step k takes the nonzero z^k coefficient whose row has the smallest
    leading index as pivot, clears it from the other rows, whose leading
    indices stay larger, and multiplies the pivot row by z (leading index
    + m).  So each row's vector has entry 1 at its leading index and
    nothing past it, and after the last step every row is a kernel
    vector.  The leading indices stay distinct mod m, so column (i, j)
    depends on the earlier ones exactly when j m + i >= lead[i]; the
    first such column f is the smallest leading index, and its row is
    the canonical kernel vector (entry f set to 1, every later entry 0).

    A row whose leading index reaches the column count n touches no
    column of the prefix and never again changes a row of smaller index,
    so it is dropped: in a narrow cell only kernel rows are left after a
    few steps per column, and none at all means full column rank, where
    the basis stops.  Reduction is
    delayed (Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 2008): the
    pivot column and row are reduced before use, each update subtracts
    a product of two residues, and the rest is reduced every
    ``_reduction_period(p)`` updates.
    """
    m, n, nrows = len(system.seqs), system.ncols, system.nrows
    pos = list(range(min(m, n)))  # the position of each row left
    lead = list(pos)
    basis = np.zeros((len(pos), nrows + width), dtype=np.int64)
    basis[:, :nrows] = system._table(p)[pos]
    basis[pos[:width], [nrows + a for a in pos[:width]]] = 1
    period = _reduction_period(p)
    updates = 0
    for k in range(nrows):
        if not lead:
            break  # full column rank
        col = basis[:, k] % p
        head = col.tolist()
        piv = min((a for a, h in enumerate(head) if h), key=lead.__getitem__, default=None)
        if piv is None:
            continue
        row = basis[piv, k:]
        row %= p
        if head.count(0) < len(head) - 1:  # another row has a nonzero
            factors = col * pow(head[piv], -1, p) % p
            factors[piv] = 0
            basis[:, k:] -= factors[:, None] * row
            updates += 1
        lead[piv] += m
        if lead[piv] >= n:
            basis = np.delete(basis, piv, axis=0)
            del pos[piv], lead[piv]
        else:  # times z: the residual moves one place, the vector m places
            res = basis[piv, k:nrows]
            res[1:] = res[:-1]
            if width:
                vec = basis[piv, nrows:]
                vec[m:] = vec[:-m]
                vec[:m] = 0
        if updates == period:
            basis[:, k + 1:] %= p
            updates = 0
    lead_of = dict(zip(pos, lead))  # a dropped row's index is past n
    piv_cols = [c for c in range(n) if c < lead_of.get(c % m, n)]
    f = min(lead, default=n)
    if f >= width:
        return piv_cols, None
    return piv_cols, (basis[lead.index(f), nrows:] % p).tolist()


def kernel_rank_mod_p(system: ShiftSystem, p: Optional[int] = None) -> Tuple[int, List[int]]:
    """(rank mod p, pivot columns ascending) of a system, read from one
    order basis that tracks no vectors (``_order_basis``).  rank mod p
    <= rank over Q, so a full column rank mod p proves the exact kernel
    is trivial; the same holds for every column prefix, whose rank mod p
    is the number of pivot columns inside it."""
    if p is None:
        p = _PRIMES[0]
    piv_cols, _ = _order_basis(system, p, 0)
    return len(piv_cols), piv_cols


def _poly_matrix_rank(mat: List[List[List[int]]], p: int) -> int:
    """Rank over F_p(z) of a nonzero square matrix of polynomials over
    F_p (int lists): the largest rank at the points t = 1, 2, ... below
    min(p, 2 deg + 4), each the pivot count of the order basis of the
    evaluated rows as a degree-0 box.  No sample exceeds the true rank.

    For ``heuristics.p_curvature``'s rows (order r, row degree d,
    leading coefficient l) the entries reach degree (p + r - 1) d, so p
    does not exceed the degrees.  The answer is exact for another
    reason: the p-curvature psi_p commutes with d, so each k-minor of its
    matrix solves a linear differential system that is regular wherever
    l(z0) != 0, and a minor vanishing at such an ordinary point z0
    vanishes there to order at least p (a leading term c (z - z0)^m
    forces m c = 0 mod p).  The rows are psi_p's rows times powers of l,
    so a nonzero k-minor, of degree at most k (p + r - 1) d, survives at
    one of any more than k (p + r - 1) d / p ordinary samples: about
    r d + 1 of them make the rank exact.  For smaller p only the
    comparisons with a brute-force oracle at p = 5, 7, 11 and 13 back
    it.  The matrix is nonzero, so its rank is at least 1 even when
    every sample is a root of every entry,
    hence ``max(best, 1)``."""
    best = 0
    r = len(mat)
    deg = max((len(c) - 1 for row in mat for c in row if c), default=0)
    for t in range(1, min(p, 2 * deg + 4)):
        rows = [[_zeval_mod(c, t, p) for c in row] for row in mat]
        best = max(best, len(_order_basis(ShiftSystem(rows, r, r), p, 0)[0]))
        if best == r:
            break
    return max(best, 1)


def _rational_reconstruct(a: int, m: int):
    """Wang reconstruction of a mod m into p/q with |p|, q <= sqrt(m/2)."""
    bound = math.isqrt(m // 2)
    r = _zratrecon(a, m, bound, bound)
    return None if r is None else QQ(*r)


def kernel_vector_exact(system: ShiftSystem, residual: Callable[[List[int]], Sequence]) -> Optional[List[int]]:
    """One exact kernel vector of the system that passes the caller's
    exact check, or None; a primitive integer vector whose last nonzero
    entry is positive.

    ``residual(vec)`` gives exact values whose first len(system) entries
    are the rows of the system times vec; the caller may append values
    of further conditions.  Each candidate that CRT and rational
    reconstruction produce is checked once, by this residual:
      - all zero: the vector is returned;
      - a nonzero among the system's rows: the candidate is wrong and
        one more prime joins the CRT;
      - zero on the system's rows, nonzero further on: the candidate is
        a kernel vector that the caller rejects, and the answer is None.
    So no vector that fails the check is ever returned.  ``None`` from a
    prime with full column rank is rigorous, since the rank can only
    drop under reduction.
    """
    piv_ref: Optional[List[int]] = None
    combined: List[int] = []
    modulus = 1
    for p in _PRIMES:
        piv, vec = _order_basis(system, p, system.ncols)
        if vec is None:
            return None
        if piv_ref is None or (-len(piv), piv) < (-len(piv_ref), piv_ref):
            # mod p every column prefix has rank <= its rank over Q, so the
            # true rank profile is the longest and, among equally long ones,
            # the lexicographically smallest: restart on a better one
            piv_ref, combined, modulus = piv, vec, p
        elif piv != piv_ref:
            continue  # this prime is the unlucky one
        else:
            inv = pow(modulus % p, p - 2, p)
            combined = [
                x + modulus * ((y - x) % p * inv % p)
                for x, y in zip(combined, vec)
            ]
            modulus *= p
        cand = _try_reconstruct(combined, modulus)
        if cand is None:
            continue
        cand = _clear_denominators(cand)
        bad = next((n for n, x in enumerate(residual(cand)) if x), None)
        if bad is None:
            return cand
        if bad >= len(system):
            return None
    # every prime unlucky or every candidate wrong: the first dependence
    # among the columns over Z, whose earlier columns are independent, is
    # the canonical kernel vector
    dep = _first_dependence(([[x] if x else [] for x in col], [1]) for col in zip(*system))
    if dep is None:
        return None
    dep += [[]] * (system.ncols - len(dep))
    cand = _clear_denominators([d[0] if d else 0 for d in dep])
    if any(residual(cand)):
        return None
    return cand


def _try_reconstruct(combined: List[int], modulus: int) -> Optional[List]:
    out = []
    for x in combined:
        r = _rational_reconstruct(x, modulus)
        if r is None:
            return None
        out.append(r)
    return out


def _clear_denominators(vec: Sequence) -> List[int]:
    """The primitive integer multiple of a nonzero rational (or integer)
    vector whose last nonzero entry is positive."""
    ints, _ = cleared(vec)
    g = math.gcd(*ints)
    if next(x for x in reversed(ints) if x) < 0:
        g = -g
    return [x // g for x in ints]


# ---------------------------------------------------------------------------
# First dependence over Q(z), fraction-free
# ---------------------------------------------------------------------------


def _first_dependence(rows: Iterable[Tuple[List[List[int]], List[int]]]) -> Optional[List[List[int]]]:
    """First Q(z)-linear dependence among vectors v_0, v_1, ... given as
    pairs (w_k, s_k) with v_k = w_k / s_k, both over Z[z], s_k nonzero.

    Incremental Bareiss elimination: row k is w_k next to the k-th unit
    vector, and pivot t (column c_t, value P_t, with P_0 = 1) turns it
    into (P_t * row - row[c_t] * pivot row t) / P_(t-1), an exact
    division by Sylvester's identity, so no gcd is ever taken.  When the
    w-part of row k reduces to zero its unit part holds d with
    sum d_i w_i = 0 and d_k = P_t != 0; the answer is c_i = d_i * s_i,
    so sum c_i v_i = 0.  Rows are drawn only until then; None when they
    run out first.
    """
    pivots: List[Tuple[int, List[int], List[List[int]]]] = []  # (column, value, row)
    scales: List[List[int]] = []
    for k, (w, s) in enumerate(rows):
        scales.append(s)
        row = list(w) + [[] for _ in range(k)] + [[1]]
        prev = [1]
        for col, val, prow in pivots:
            f = row[col]
            for i, x in enumerate(row):
                x = _zmul(val, x)
                if f and i < len(prow):
                    x = _zsub(x, _zmul(f, prow[i]))
                row[i] = x if prev == [1] else _zexquo(x, prev)
            prev = val
        dim = len(w)
        col = next((i for i in range(dim) if row[i]), None)
        if col is None:
            return [_zmul(d, s) for d, s in zip(row[dim:], scales)]
        pivots.append((col, row[col], row))
    return None
