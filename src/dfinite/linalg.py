"""Exact kernel computation for large structured integer systems.

Guessing systems come as a ``ShiftSystem``: the integer sequences they
are made of and, per column, which sequence it reads at which shift.
Modulo a prime each sequence is reduced once and the matrix is gathered
from the residues with numpy index arrays; no matrix is ever reduced
cell by cell.  Every entry is an integer, so every prime reduces the
system; a prime that divides many entries is just an unlucky prime.
``ShiftSystem.times`` is the one exact product of shifted sequences
with a vector: the guessers' residuals, ``series.apply_op`` and the
algebraic check P(z, f) = O(z^n) all run on it, over Z.

Strategy: the guesser's probe reads the rank profile of its whole
degree-capped system from one order basis of the Hermite-Pade problem
mod a prime below 2^26 (``kernel_rank_mod_p``): m residual rows, one
step per row of the system, no matrix.  Kernel vectors come from one
forward elimination modulo each prime with numpy, which gives the rank
profile and an echelon form.  Both work in int64 with delayed reduction
(Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 2008): the pivot
column and row are reduced before use, and the rest only once every
2^11 or more steps, since each update subtracts less than p^2 < 2^52.
A trivial kernel modulo any prime proves a trivial kernel over Q, which
makes "no operator of this shape exists" conclusions rigorous.  When a
kernel exists, each prime's canonical kernel vector (first free column
set to 1) comes from back-substitution through the echelon form's
leading triangle; the vectors are combined by CRT over several primes
with rational reconstruction.  Each reconstructed candidate gets one
exact check inside the CRT loop, the caller's residual, which covers
every row of the system; a candidate that fails it brings in one more
prime, and only vectors that pass it are ever returned, so candidate
generation never affects soundness.
When the primes run out, the exact answer is the first dependence
among the columns by fraction-free Bareiss elimination over Z
(``_first_dependence``, which the operator code shares).

The rank of a polynomial matrix over F_p(z) (the p-curvature) uses the
same elimination at sample points, and small eliminations over Q(z) run
fraction-free over Z[z].
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
    """A matrix given by its integer sequences: column c is the pair
    (s_c, k_c), and its entry at row r is seqs[s_c][r - k_c], zero
    outside the sequence (shifts k_c >= 0).

    Guessing systems have this block-Toeplitz shape: row n of the
    Hermite-Pade system of an operator is the z^n coefficient of
    sum c_ij z^j f^(i), so column (i, j) is f^(i) shifted by j; the
    guessers build it over a multiple of f with integer terms, which has
    the same kernel.  Reduced mod p, each sequence is reduced once
    (``_residues``) and the matrix is gathered from the residues by index
    arithmetic.  Entries must be integers (TypeError otherwise): numpy
    would silently truncate a rational residue.  The system is also a
    sequence of its integer rows (``len``, indexing, iteration, which
    stops at the IndexError past the last row).
    """

    __slots__ = ("seqs", "cols", "nrows", "_pad", "_residues")

    def __init__(self, seqs: Sequence[Sequence[int]], cols: Sequence[Tuple[int, int]], nrows: int):
        if not all(isinstance(c, int) for seq in seqs for c in seq):
            raise TypeError("ShiftSystem entries must be integers")
        self.seqs = seqs
        self.cols = list(cols)
        self.nrows = nrows
        # zeros before each sequence in the residue table: the largest
        # shift of the whole system, so every prefix reads the same table
        self._pad = max((k for _, k in self.cols), default=0)
        # p -> residue table; shared with every prefix of the system
        self._residues: Dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.nrows

    def __getitem__(self, r: int) -> List[int]:
        if not 0 <= r < self.nrows:
            raise IndexError(r)
        row = []
        for s, k in self.cols:
            seq = self.seqs[s]
            row.append(seq[r - k] if 0 <= r - k < len(seq) else 0)
        return row

    def prefix(self, ncols: int) -> "ShiftSystem":
        """The first ncols columns, sharing the residues."""
        sub = copy.copy(self)
        sub.cols = self.cols[:ncols]
        return sub

    def times(self, vec: Sequence) -> List:
        """The exact product with a vector: one value per row.  Each
        column adds v times its sequence to rows k.. as one slice."""
        out = [0] * self.nrows
        for (s, k), v in zip(self.cols, vec):
            if v:
                seq = self.seqs[s]
                end = min(self.nrows, k + len(seq))
                out[k:end] = [o + v * x for o, x in zip(out[k:end], seq)]
        return out

    def mod(self, p: int) -> np.ndarray:
        """The matrix mod p."""
        table = self._table(p)
        s_idx = np.array([s for s, _ in self.cols], dtype=np.int64)
        k_idx = np.array([k for _, k in self.cols], dtype=np.int64)
        start = s_idx * table.shape[1] + self._pad - k_idx
        return table.ravel()[start[None, :] + np.arange(self.nrows)[:, None]]

    def _table(self, p: int) -> np.ndarray:
        table = self._residues.get(p)
        if table is None:
            table = self._residues[p] = self._reduce(p)
        return table

    def _reduce(self, p: int) -> np.ndarray:
        """Row s holds seqs[s][:nrows] mod p after ``_pad`` zeros."""
        pad = self._pad
        table = np.zeros((len(self.seqs), pad + self.nrows), dtype=np.int64)
        for s, seq in enumerate(self.seqs):
            head = seq[:self.nrows]
            table[s, pad:pad + len(head)] = list(map(p.__rmod__, head))
        return table


def _reduction_period(p: int) -> int:
    """The most row updates an int64 entry takes between reductions mod
    p: the largest k with k (p-1)^2 + (p-1) < 2^63.  At least 2^11 for
    p < 2^26, 2 or 1 for primes near 2^31."""
    k = (2 ** 63 - p) // (p - 1) ** 2
    if k < 1:
        raise ValueError("prime %d too large for int64 elimination" % p)
    return k


def _rank_profile_mod(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """(row echelon form of ``a`` mod p, its pivot columns ascending).

    Forward elimination only: each pivot clears the trailing block below
    it (up to the pivot row's last nonzero) and nothing above, which is
    all a rank needs; pivot t sits in row t.  Pivot columns do not depend
    on the choice of pivot rows, and the number of them below k is the
    rank mod p of the first k columns.

    Reduction is delayed: the pivot column is reduced before it is
    searched and the pivot row before it is used, so each update
    subtracts a product of two residues, less than (p-1)^2.  An entry
    reduced into [0, p) then stays above -k (p-1)^2 after k updates, and
    the trailing block is reduced every ``_reduction_period(p)`` pivots,
    which keeps it inside int64.  The whole matrix is reduced once at the
    end, so the echelon form returned has entries in [0, p).
    """
    m, n = a.shape
    a = a % p
    period = _reduction_period(p)
    piv_cols: List[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        col = a[r:, c] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k], c:] = a[[k, r], c:]
            col[[0, k - r]] = col[[k - r, 0]]
        a[r, c:] %= p
        end = c + 1 + int(np.flatnonzero(a[r, c:])[-1])  # pivot row is 0 past end
        if r + 1 < m:
            factors = col[1:] * pow(int(col[0]), -1, p) % p
            a[r + 1:, c:end] -= np.outer(factors, a[r, c:end])
        piv_cols.append(c)
        r += 1
        if r % period == 0:
            a[r:, c + 1:] %= p
    a %= p
    return a, piv_cols


def kernel_rank_mod_p(system: ShiftSystem, p: Optional[int] = None) -> Tuple[int, List[int]]:
    """(rank mod p, pivot columns ascending) of a degree-major box, whose
    column j m + i is (i, j) for m = len(system.seqs) (ValueError for
    any other layout).  rank mod p <= rank over Q, so a full column rank
    mod p proves the exact kernel is trivial; the same holds for every
    column prefix, whose rank mod p is the number of pivot columns
    inside it.

    A kernel vector is a polynomial vector (P_0, ..., P_{m-1}) with
    sum P_i S_i = O(z^nrows), S_i the i-th sequence, and its last nonzero
    column j m + i is its leading index (degree j, position i).  One
    order basis mod p (Beckermann and Labahn, SIAM J. Matrix Anal. Appl.
    1994) keeps one basis row per position, by residual only: row a
    starts as S_a with leading index a.  Step k takes the nonzero
    z^k coefficient whose row has the smallest leading index as pivot,
    clears it from the other rows, whose leading indices stay larger,
    and multiplies the pivot row by z (leading index + m).  The leading
    indices stay distinct mod m, so every kernel vector's leading index
    is one of them plus a multiple of m: column (i, j) depends on the
    earlier ones exactly when j m + i >= lead[i].  Reduction is delayed
    as in ``_rank_profile_mod``: each step updates a row at most once.
    """
    if p is None:
        p = _PRIMES[0]
    m, n = len(system.seqs), len(system.cols)
    if not n:
        return 0, []
    if not m or n % m or system.cols != [(c % m, c // m) for c in range(n)]:
        raise ValueError("kernel_rank_mod_p needs degree-major box columns (i, j), i < %d" % m)
    res = system._table(p)[:, system._pad:].copy()
    lead = list(range(m))
    period = _reduction_period(p)
    for k in range(system.nrows):
        col = res[:, k] % p
        head = col.tolist()
        piv = min((a for a in range(m) if head[a]), key=lead.__getitem__, default=None)
        if piv is not None:
            row = res[piv, k:]
            row %= p
            factors = col * pow(head[piv], -1, p) % p
            factors[piv] = 0
            res[:, k:] -= factors[:, None] * row
            row[1:] = row[:-1].copy()  # times z
            lead[piv] += m
        if (k + 1) % period == 0:
            res[:, k + 1:] %= p
    piv_cols = [c for c in range(n) if c < lead[c % m]]
    return len(piv_cols), piv_cols


def _kernel_mod(a: np.ndarray, p: int) -> Tuple[List[int], Optional[List[int]]]:
    """(pivot columns of ``a`` mod p, canonical kernel vector or None)."""
    ech, piv_cols = _rank_profile_mod(a, p)
    return piv_cols, _back_substitute(ech, piv_cols, a.shape[1], p)


def _kernel_mod_system(system: ShiftSystem, p: int) -> Tuple[List[int], Optional[List[int]]]:
    """``_kernel_mod`` of the system mod p."""
    return _kernel_mod(system.mod(p), p)


def _back_substitute(ech: np.ndarray, piv_cols: List[int], n: int, p: int) -> Optional[List[int]]:
    """The canonical kernel vector of the first n columns of an echelon
    form with those pivot columns, or None when they are independent.

    The vector sets the first free column f to 1 and every other free
    column to 0.  Columns 0..f-1 are pivots in rows 0..f-1 of the echelon
    form, so back-substitution through that triangle gives them; pivot
    columns past f are 0.
    """
    f = next((t for t, c in enumerate(piv_cols) if t != c), len(piv_cols))
    if f == n:
        return None
    vec = np.zeros(n, dtype=np.int64)
    vec[f] = 1
    rhs = -ech[:f, f] % p
    for t in range(f - 1, -1, -1):
        x = int(rhs[t]) * pow(int(ech[t, t]), -1, p) % p
        if x:
            vec[t] = x
            rhs[:t] = (rhs[:t] - ech[:t, t] * x) % p
    return vec.tolist()


def _poly_matrix_rank(mat: List[List[List[int]]], p: int) -> int:
    """Rank over F_p(z) of a nonzero square matrix of polynomials over
    F_p (int lists) via evaluation at several points (exact for at least
    one point as long as p exceeds the degrees involved; we take the max
    over a spread of sample points)."""
    best = 0
    deg = max((len(c) - 1 for row in mat for c in row if c), default=0)
    for t in range(1, min(p, 2 * deg + 4)):
        m = np.array([[_zeval_mod(c, t, p) for c in row] for row in mat], dtype=np.int64)
        best = max(best, len(_rank_profile_mod(m, p)[1]))
        if best == len(mat):
            break
    return max(best, 1)  # all samples may hit roots; the matrix is still nonzero


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
    if not system.nrows or not system.cols:
        return None
    piv_ref: Optional[List[int]] = None
    combined: List[int] = []
    modulus = 1
    for p in _PRIMES:
        piv, vec = _kernel_mod_system(system, p)
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
    dep += [[]] * (len(system.cols) - len(dep))
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
