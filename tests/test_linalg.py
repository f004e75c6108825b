"""Modular linear algebra: the order basis's pivot columns and kernel
vectors, with delayed reduction, against elimination mod p and over Q,
on dense matrices, degree boxes and column prefixes of any width, the
p-curvature rank at sample points, the column counts a system refuses,
residue tables against the cell-by-cell oracle, integer-only entries,
the one exact check inside the CRT loop, the fraction-free exact
fallback against dense Gauss-Jordan over Fraction, a prime dividing the
series' denominator, rational reconstruction past float range, the
guesser's one-probe proof on the Apery operator, and the fraction-free
Q(z) dependence."""

from bisect import bisect_left
from fractions import Fraction
import math
from math import prod
from pathlib import Path
from unittest import mock

import numpy as np

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dfinite.linalg as linalg
from dfinite.algebraic import BivarPoly, _algebraic_system, guess_algebraic
from dfinite.fileio import load_problem
from dfinite.linalg import (
    ShiftSystem,
    _PRIMES,
    _first_dependence,
    _order_basis,
    _poly_matrix_rank,
    _rational_reconstruct,
    _reduction_period,
    kernel_rank_mod_p,
    kernel_vector_exact,
)
from dfinite.minimize import INPUT_RETURNED, _guess_system, minimal_annihilator
from dfinite.polys import Poly, _zeval_mod
from dfinite.rationals import Q0, QQ
from dfinite.series import TruncSeries
from oracles import (
    RatFunc,
    _build_algebraic_rows,
    _build_rows,
    _kernel_vector_mod,
    _reduce_matrix_mod,
    _rref_mod,
    dense_system,
    kernel_vector_oracle,
    rank_profile_mod_oracle,
    ratfunc_dependence,
)

APERY = Path(__file__).resolve().parents[1] / "bench" / "data" / "apery.json"


def _gather_mod(system, p):
    """The system's matrix mod p, read entry by entry from its residue
    table."""
    table, m = system._table(p), len(system.seqs)
    rows = [[table[c % m, r - c // m] if r >= c // m else 0 for c in range(system.ncols)]
            for r in range(system.nrows)]
    return np.array(rows, dtype=np.int64).reshape(system.nrows, system.ncols)


def _canonical_mod(a, p):
    """(pivot columns, canonical kernel vector or None) of a matrix mod p
    by the oracles: per-pivot elimination and the full RREF."""
    kernel = _kernel_vector_mod(a.copy(), p)
    return rank_profile_mod_oracle(a.copy(), p)[1], None if kernel is None else kernel[2]


def _basis(system, p, period):
    """``_order_basis`` of the whole system, tracking every column, with
    ``_reduction_period`` forced to ``period`` unless that is None."""
    if period is None:
        return _order_basis(system, p, system.ncols)
    with mock.patch.object(linalg, "_reduction_period", lambda q: period):
        return _order_basis(system, p, system.ncols)


@st.composite
def shared_matrices(draw):
    """Small rational matrices whose cells reuse a few entry objects, with
    some columns forced to zero."""
    pool = draw(st.lists(
        st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4])),
        min_size=1, max_size=4,
    ))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    picks = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n),
                          min_size=m, max_size=m))
    return [[Q0 if j in zero_cols else pool[k] for j, k in enumerate(line)] for line in picks]


@settings(max_examples=200, deadline=None)
@given(shared_matrices(), st.sampled_from([5, 7, _PRIMES[0]]))
def test_pivot_prefix_counts_are_prefix_ranks(rows, p):
    # 12 times each row clears every denominator; 12 is a unit mod each prime
    rank, piv = kernel_rank_mod_p(dense_system([[int(12 * c) for c in row] for row in rows]), p)
    assert rank == len(piv) and piv == sorted(set(piv))
    a = _reduce_matrix_mod(rows, p)
    for k in range(len(rows[0]) + 1):
        _, ref_piv, _ = _rref_mod(a[:, :k], p)
        assert bisect_left(piv, k) == len(ref_piv), k


@settings(max_examples=200, deadline=None)
@given(shared_matrices(), st.sampled_from([5, 7, _PRIMES[0]]))
# the first free column comes before later pivots
@example([[QQ(1), QQ(2), Q0], [QQ(2), QQ(4), QQ(1)]], 7)
@example([[Q0, QQ(1), QQ(3)], [Q0, QQ(2), QQ(1, 2)]], 5)
def test_order_basis_kernel_matches_rref(rows, p):
    # a dense matrix is a degree-0 box of its columns
    a = _reduce_matrix_mod(rows, p)
    piv, vec = _order_basis(dense_system(a.tolist()), p, a.shape[1])
    want = _kernel_vector_mod(a, p)
    assert (vec is None) == (want is None) == (len(piv) == len(rows[0]))
    if want is not None:
        assert (piv, vec) == (want[0], want[2])


# a 31-bit prime takes two updates between reductions, a 32-bit one one
_P_WIDE = {2147483629: 2, 2147483659: 1}


def test_reduction_period_from_the_prime():
    assert _reduction_period(_PRIMES[-1]) >= _reduction_period(_PRIMES[0]) == 2 ** 11
    for p, period in _P_WIDE.items():
        assert _reduction_period(p) == period
    with pytest.raises(ValueError):
        _reduction_period(2 ** 32 - 5)


@st.composite
def residue_matrices(draw):
    """(matrix mod p, p): entries anywhere in [0, p), often of low rank
    (a product of two thin factors) and with leading zero rows in a
    column, so that pivots need row swaps."""
    p = draw(st.one_of(
        st.integers(3, 2 ** 26).map(lambda n: int(sympy.prevprime(n))),
        st.sampled_from([5, 7] + list(_P_WIDE)),
    ))
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    entries = st.integers(0, p - 1)
    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))
        left = np.array(draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                                      min_size=m, max_size=m)), dtype=object).reshape(m, k)
        right = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                       min_size=k, max_size=k)), dtype=object).reshape(k, n)
        a = (left.dot(right) % p).astype(np.int64) if k else np.zeros((m, n), dtype=np.int64)
    else:
        a = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=m, max_size=m)), dtype=np.int64)
    for c in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        a[:draw(st.integers(0, m)), c] = 0
    return a, p


@settings(max_examples=300, deadline=None)
@given(residue_matrices(), st.sampled_from([None, 1, 2, 3]))
def test_delayed_reduction_matches_per_pivot_reduction(case, period):
    # the order basis of the matrix's columns, whose residues take many
    # updates between reductions, finds the pivots and the kernel vector
    # of elimination reduced after every pivot; a short forced period
    # runs the in-loop reduction at 26-bit primes too
    a, p = case
    if period is not None and period > _reduction_period(p):
        period = None
    assert _basis(dense_system(a.tolist()), p, period) == _canonical_mod(a, p)


def test_delayed_reduction_on_a_large_rank_deficient_matrix():
    # 120 x 100 of rank 70 at a 26-bit and at the two wide primes: every
    # basis row takes dozens of updates between reductions
    rng = np.random.default_rng(1)
    for p in [_PRIMES[0]] + list(_P_WIDE):
        left = rng.integers(0, p, size=(120, 70)).astype(object)
        right = rng.integers(0, p, size=(70, 100)).astype(object)
        a = (left.dot(right) % p).astype(np.int64)
        a[:5] = 0  # the first rows have no pivot
        piv, vec = _basis(dense_system(a.tolist()), p, None)
        assert len(piv) == 70 and (piv, vec) == _canonical_mod(a, p)


@st.composite
def box_systems(draw):
    """(degree-major box system, p): m sequences, column (i, j) the i-th
    shifted by j, with zero, repeated and short sequences, sequences
    planted as combinations of shifts of earlier ones, leading zeros,
    entries around 10^9, and row counts of 0, up to the column count and
    past it; p small enough that ranks drop."""
    m, degree = draw(st.integers(1, 8)), draw(st.integers(0, 4))
    ncols = m * (degree + 1)
    nrows = draw(st.one_of(st.just(0), st.integers(1, ncols), st.integers(ncols + 1, ncols + 8)))
    entries = st.one_of(st.integers(-2 * 10 ** 9, 2 * 10 ** 9), st.integers(-3, 3))
    seqs = []
    for _ in range(m):
        kind = draw(st.sampled_from(["zero", "repeat", "planted", "drawn", "drawn", "drawn"]))
        length = draw(st.one_of(st.just(nrows), st.integers(0, nrows + 2)))
        if kind == "zero":
            seq = [0] * length
        elif kind == "repeat" and seqs:
            seq = list(draw(st.sampled_from(seqs)))
        elif kind == "planted" and seqs:
            seq = [0] * length
            terms = st.tuples(st.sampled_from(seqs), st.integers(0, 2), st.sampled_from([1, -1, 2, -3]))
            for other, shift, c in draw(st.lists(terms, min_size=1, max_size=4)):
                for r, x in enumerate(other[:max(length - shift, 0)]):
                    seq[r + shift] += c * x
        else:
            zeros = draw(st.integers(0, 3))
            body = max(length - zeros, 0)
            seq = [0] * zeros + draw(st.lists(entries, min_size=body, max_size=body))
        seqs.append(seq)
    return ShiftSystem(seqs, ncols, nrows), draw(st.sampled_from([2, 5, 7, _PRIMES[0]]))


@settings(max_examples=400, deadline=None)
@given(box_systems(), st.sampled_from([None, 1, 2, 3]))
def test_order_basis_pivots_match_elimination(case, period):
    # the probe's order basis finds the pivot columns that elimination of
    # the whole matrix finds; a short forced period runs the in-loop
    # reduction at the 26-bit prime too
    system, p = case
    want = rank_profile_mod_oracle(_gather_mod(system, p), p)[1]
    if period is None:
        got = kernel_rank_mod_p(system, p)
    else:
        with mock.patch.object(linalg, "_reduction_period", lambda q: period):
            got = kernel_rank_mod_p(system, p)
    assert got == (len(want), want)


@settings(max_examples=300, deadline=None)
@given(box_systems(), st.sampled_from([None, 1, 2, 3]), st.data())
def test_order_basis_kernel_vector_matches_oracles(case, period, data):
    # on a degree-major prefix of any width, whole degrees or not, the
    # basis row with the smallest leading index is the canonical kernel
    # vector mod p, and the CRT over such rows gives the one over Q
    system, p = case
    n = data.draw(st.integers(0, system.ncols))
    part = system.prefix(n)
    assert _basis(part, p, period) == _canonical_mod(_gather_mod(part, p), p)
    if period is None:
        got = kernel_vector_exact(part, part.times)
    else:
        with mock.patch.object(linalg, "_reduction_period", lambda q: period):
            got = kernel_vector_exact(part, part.times)
    if not n:
        assert got is None
    elif not part.nrows:
        assert got == [1] + [0] * (n - 1)
    else:
        assert got == kernel_vector_oracle([list(row) for row in part])


def test_order_basis_on_a_large_planted_system():
    # 7 sequences of 300 terms, the last two combinations of shifts of the
    # first five (a kernel of degree 3 and one of degree 12), at a 26-bit
    # and at the two wide primes: rows take many updates between turns
    # as pivot
    rng = np.random.default_rng(1)
    seqs = [rng.integers(-10 ** 9, 10 ** 9, size=300).tolist() for _ in range(5)]
    for degree in (3, 12):
        planted = [0] * 300
        for _ in range(8):
            seq, shift, c = seqs[rng.integers(5)], int(rng.integers(degree + 1)), int(rng.integers(1, 4))
            planted[shift:] = [x + c * y for x, y in zip(planted[shift:], seq)]
        seqs.append(planted)
    system = ShiftSystem(seqs, 7 * 41, 300)
    for p in [_PRIMES[0]] + list(_P_WIDE):
        want = _canonical_mod(_gather_mod(system, p), p)
        assert len(want[0]) < system.ncols
        assert kernel_rank_mod_p(system, p) == (len(want[0]), want[0])
        assert _order_basis(system, p, system.ncols) == want


def test_probe_needs_a_degree_major_box():
    # every system is a degree-major box, or a column prefix of one: the
    # column count is all a layout takes, and a negative one, or columns
    # with no sequence to read, are refused; the prefixes, the algebraic
    # guesser's system among them, are accepted by both entry points
    seqs = [[1, 2, 3, 4, 5], [0, 1, 0, 2, 7]]
    for bad_seqs, ncols in ((seqs, -1), ([], 1), ([], -1)):
        with pytest.raises(ValueError):
            ShiftSystem(bad_seqs, ncols, 5)
    assert kernel_rank_mod_p(ShiftSystem([], 0, 5)) == (0, [])
    algebraic = _algebraic_system(TruncSeries([QQ(c) for c in [1, 2, 3, 5, 8, 13, 21]]), 2, 2)
    for system in [algebraic] + [ShiftSystem(seqs, n, 5) for n in range(7)]:
        rank, _ = kernel_rank_mod_p(system)
        assert (kernel_vector_exact(system, system.times) is None) == (rank == system.ncols)
    assert kernel_rank_mod_p(ShiftSystem(seqs, 0, 5)) == (0, [])
    assert kernel_rank_mod_p(ShiftSystem(seqs, 6, 0)) == (0, [])


def test_system_without_rows_has_every_vector_in_its_kernel():
    # the first unit vector goes through the caller's residual, which
    # decides alone: no rows, so any further condition it appends
    system = ShiftSystem([[1, 2, 3], [0, 1, 4]], 6, 0)
    assert kernel_vector_exact(system, system.times) == [1, 0, 0, 0, 0, 0]
    assert kernel_vector_exact(system, lambda vec: [vec[0]]) is None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 4), st.data())
def test_poly_matrix_rank_matches_elimination_at_sample_points(p, r, data):
    # the largest rank over the sample points, with each point's rank
    # from per-pivot elimination; rows often repeat or vanish
    entry = st.lists(st.integers(0, p - 1), max_size=4).map(
        lambda c: c[:max((i + 1 for i, x in enumerate(c) if x), default=0)])
    mat = [data.draw(st.lists(entry, min_size=r, max_size=r)) for _ in range(r)]
    if data.draw(st.booleans()):
        mat[-1] = list(mat[0])
    if not any(map(any, mat)):
        mat[0][0] = [1]
    deg = max((len(c) - 1 for row in mat for c in row if c), default=0)
    best = 0
    for t in range(1, min(p, 2 * deg + 4)):
        a = np.array([[_zeval_mod(c, t, p) for c in row] for row in mat], dtype=np.int64)
        best = max(best, len(rank_profile_mod_oracle(a, p)[1]))
    assert _poly_matrix_rank(mat, p) == max(best, 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])),
                min_size=6, max_size=16),
       st.integers(1, 3), st.integers(0, 3), st.sampled_from([5, 7, _PRIMES[0]]))
def test_prefix_kernel_matches_a_fresh_elimination(coeffs, order, degree, p):
    # after the probe on the full system, each prefix's kernel at p is a
    # fresh elimination of its own matrix, and its pivots are the probe's
    # inside the prefix
    system = _guess_system(TruncSeries(coeffs), order, degree)
    _, piv = kernel_rank_mod_p(system, p)
    fresh = _guess_system(TruncSeries(coeffs), order, degree)
    for n in range(system.ncols + 1):
        got = _order_basis(system.prefix(n), p, n)
        assert got == _canonical_mod(_gather_mod(fresh.prefix(n), p), p)
        assert got[0] == piv[:bisect_left(piv, n)]


def test_memoized_reduction_matches_per_entry():
    p = 11
    shared = QQ(-3, 4)
    rows = [[shared, QQ(5, 2), Q0], [QQ(-3, 4), shared, QQ(7)], [shared] * 3]
    expected = [[int(c.numerator) * pow(int(c.denominator), -1, p) % p for c in row]
                for row in rows]
    assert _reduce_matrix_mod(rows, p).tolist() == expected


def test_memoized_reduction_rejects_bad_prime():
    bad = QQ(1, 7)
    with pytest.raises(ValueError):
        _reduce_matrix_mod([[QQ(2), bad], [bad, QQ(2)]], 7)


_P = _PRIMES[0]


@st.composite
def layouts(draw):
    """A series with rational coefficients, some of whose denominators
    the prime divides, and one of the two guessing layouts: (system,
    oracle rows).  Both systems are over D f, D the least common
    denominator of f's terms, so the oracle rows are scaled by D (the
    operator guesser) or by D^max_dy (the algebraic one)."""
    p = draw(st.sampled_from([5, 7, _P]))
    coeffs = draw(st.lists(
        st.builds(Fraction, st.integers(-30, 30),
                  st.sampled_from([1, 1, 1, 2, 3, 5, 7, 10, 14, 25, _P])),
        min_size=4, max_size=14,
    ))
    f = TruncSeries(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs))
    if draw(st.booleans()):
        order = draw(st.integers(0, 3))
        degree = draw(st.integers(0, 3))
        system = _guess_system(f, order, degree)
        rows = [[c * den for c in row] for row in _build_rows(f, order, degree)]
    else:
        dy, dz = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        system = _algebraic_system(f, dy, dz)
        rows = [[c * den ** dy for c in row] for row in _build_algebraic_rows(f, dy, dz)]
    return p, system, rows


@settings(max_examples=300, deadline=None)
@given(layouts(), st.data())
def test_gathered_matrix_matches_cell_by_cell_reduction(case, data):
    # the system is integral and equals the oracle rows; it and its
    # prefixes share one residue table per prime, whichever of them
    # reduces the prime first
    p, system, rows = case
    assert len(system) == len(rows) and [list(r) for r in system] == rows
    widths = data.draw(st.permutations(
        data.draw(st.lists(st.integers(0, system.ncols), max_size=3)) + [None]))
    for ncols in widths:
        part = system if ncols is None else system.prefix(ncols)
        head = rows if ncols is None else [row[:ncols] for row in rows]
        assert _gather_mod(part, p).tolist() == _reduce_matrix_mod(head, p).tolist()


@settings(max_examples=100, deadline=None)
@given(layouts(), st.data())
def test_exact_product_matches_rows(case, data):
    _, system, rows = case
    vec = [data.draw(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
           for _ in range(system.ncols)]
    assert system.times(vec) == [sum((c * v for c, v in zip(row, vec)), Q0) for row in rows]


def _kernel_case():
    """A 4x5 integer system with a one-dimensional kernel over Q."""
    rows = [[6, 12, 0, 18, 6],
            [0, 6, 3, -6, 12],
            [12, 0, 6, 6, 6],
            [6, 6, 6, 6, 10]]
    return dense_system(rows)


def _wrong_first(monkeypatch, times):
    """Make the first ``times`` reconstructions return a vector that is
    not in the kernel; count the calls."""
    real = linalg._try_reconstruct
    calls = []

    def patched(combined, modulus):
        calls.append(modulus)
        got = real(combined, modulus)
        if len(calls) <= times and got is not None:
            return [x + 1 for x in got]
        return got

    monkeypatch.setattr(linalg, "_try_reconstruct", patched)
    return calls


def test_kernel_vector_is_a_primitive_integer_vector(monkeypatch):
    # from the CRT loop, and from the fraction-free fallback
    system = _kernel_case()
    for every_candidate_wrong in (False, True):
        if every_candidate_wrong:
            _wrong_first(monkeypatch, len(_PRIMES))
        vec = kernel_vector_exact(system, system.times)
        assert all(type(x) is int for x in vec)
        assert math.gcd(*vec) == 1 and next(x for x in reversed(vec) if x) > 0


def test_failed_candidate_adds_a_prime(monkeypatch):
    system = _kernel_case()
    want = kernel_vector_exact(system, system.times)
    assert want is not None and not any(system.times(want))
    calls = _wrong_first(monkeypatch, 1)
    assert kernel_vector_exact(system, system.times) == want
    assert len(calls) == 2 and calls[1] > calls[0]  # a second prime joined


def test_failing_vector_never_returned(monkeypatch):
    system = _kernel_case()
    want = kernel_vector_exact(system, system.times)
    seen = []

    def residual(vec):
        out = system.times(vec)
        seen.append(not any(out))
        return out

    # every reconstruction is wrong: the exact fallback answers, checked
    calls = _wrong_first(monkeypatch, len(_PRIMES))
    assert kernel_vector_exact(system, residual) == want
    assert len(calls) == len(_PRIMES) and seen == [False] * len(calls) + [True]
    # a kernel vector that fails the caller's further condition is not
    # returned, and no prime is added for it
    monkeypatch.undo()
    calls = _wrong_first(monkeypatch, 0)
    assert kernel_vector_exact(system, lambda vec: system.times(vec) + [QQ(1)]) is None
    assert len(calls) == 1


def test_shift_system_takes_only_integers():
    # numpy would store Fraction(7, 2) % 5 as 3; an integral Fraction is
    # refused too
    for bad in (Fraction(7, 2), QQ(3)):
        with pytest.raises(TypeError):
            ShiftSystem([[1, bad]], 1, 2)
    big = 2 ** 70 + 3
    system = ShiftSystem([[-1, big]], 2, 3)
    assert [row[1] for row in system] == [0, -1, big]
    assert _gather_mod(system, 5).tolist() == [[4, 0], [big % 5, 4], [0, big % 5]]


@st.composite
def integer_matrices(draw):
    """Integer matrices, some entries beyond int64: either random (often
    of full column rank) or with one column a combination of earlier
    ones (a planted dependence)."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    entries = st.one_of(st.integers(-5, 5), st.integers(-2 ** 70, 2 ** 70))
    cols = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        mix = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
        cols[k] = [sum(a * col[r] for a, col in zip(mix, cols)) for r in range(m)]
    return [list(row) for row in zip(*cols)]


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
@example([[1, 0], [0, 1], [1, 1]])  # full column rank
@example([[1, 2, 0], [3, 6, 1]])  # column 1 is twice column 0
@example([[0, 1], [0, 2]])  # a zero column
def test_exact_fallback_matches_dense_gauss_jordan(rows):
    # with no primes at all, kernel_vector_exact answers from the
    # fraction-free dependence alone: the oracle's normalized canonical
    # kernel vector, or None for independent columns
    system = dense_system(rows)
    with mock.patch.object(linalg, "_PRIMES", []):
        got = kernel_vector_exact(system, system.times)
    assert got == kernel_vector_oracle(rows)


def test_prime_dividing_the_denominator_is_an_unlucky_prime():
    # f = sqrt(1 - 4z/7), D a power of 7: the first prime, 7, divides D,
    # drops the rank of the integer system and is passed over
    terms = [Fraction(1)]
    for k in range(1, 30):
        terms.append(terms[-1] * Fraction(2 * k - 3, 2 * k) * Fraction(4, 7))
    f = TruncSeries(terms)
    want = guess_algebraic(f, 2, 1)
    assert want == BivarPoly([Poly([-7, 4]), Poly(), Poly([7])])
    seen = []
    real = linalg._order_basis
    with mock.patch.object(linalg, "_PRIMES", [7] + _PRIMES), \
            mock.patch.object(linalg, "_order_basis",
                              lambda system, p, width: seen.append(p) or real(system, p, width)):
        got = guess_algebraic(f, 2, 1)
    assert seen[0] == 7 and len(seen) > 1
    assert got.y_coeffs == want.y_coeffs


def test_unlucky_first_prime_with_as_many_pivots_is_passed_over():
    # columns (p, 0), (1, 0), (0, 1): the first prime p gives pivots [1, 2]
    # against [0, 2] over Q; the later primes' profile, as long and
    # lexicographically smaller, replaces it, and no fallback is needed
    p = _PRIMES[0]
    system = dense_system([[p, 1, 0], [0, 0, 1]])
    calls = []
    real = linalg._first_dependence
    with mock.patch.object(linalg, "_first_dependence",
                           lambda rows: calls.append(1) or real(rows)):
        got = kernel_vector_exact(system, system.times)
    assert got == [-1, p, 0]
    assert calls == []


def test_later_prime_with_a_worse_pivot_profile_is_skipped():
    # columns (q, 0), (1, 0), (0, 1) with q the second prime: the first
    # prime gives pivots [0, 2] as over Q, q gives [1, 2] and is passed
    # over without joining the CRT
    q = _PRIMES[1]
    system = dense_system([[q, 1, 0], [0, 0, 1]])
    profiles, moduli = [], []
    real_basis, real_reconstruct = linalg._order_basis, linalg._try_reconstruct

    def basis(system, p, width):
        out = real_basis(system, p, width)
        profiles.append(out[0])
        return out

    with mock.patch.object(linalg, "_order_basis", basis), \
            mock.patch.object(linalg, "_try_reconstruct",
                              lambda combined, modulus: moduli.append(modulus) or real_reconstruct(combined, modulus)):
        got = kernel_vector_exact(system, system.times)
    assert got == [-1, q, 0]
    assert profiles[:2] == [[0, 2], [1, 2]]
    assert len(moduli) == len(profiles) - 1 and all(m % q for m in moduli)


def test_exact_fallback_rejected_by_the_residual_gives_none():
    # no primes: the fraction-free dependence is the only candidate, and a
    # residual that appends a nonzero turns it down
    system = dense_system([[1, 2, 0], [3, 6, 1]])
    with mock.patch.object(linalg, "_PRIMES", []):
        assert kernel_vector_exact(system, system.times) == [-2, 1, 0]
        assert kernel_vector_exact(system, lambda vec: system.times(vec) + [QQ(1)]) is None


def test_rational_reconstruct_beyond_float_range():
    m = prod(_PRIMES[:40])
    assert m.bit_length() > 1024
    for value in (QQ(3, 7), QQ(-123456789, 987654321)):
        a = int(value.numerator) * pow(int(value.denominator), -1, m) % m
        assert _rational_reconstruct(a, m) == value


def test_apery_minimization_proves_no_smaller_operator():
    op, init, _ = load_problem(str(APERY))
    res = minimal_annihilator(op, init)
    assert res.status == INPUT_RETURNED
    assert res.search_log == [(1, 144, "empty kernel"), (2, 144, "empty kernel")]


def _zlist(p):
    return [int(c) for c in p.coeffs]


_zpolys = st.lists(st.integers(-3, 3), max_size=3).map(lambda c: _zlist(Poly(c)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.data())
def test_first_dependence_matches_ratfunc_oracle(dim, data):
    # sparse integer vectors over row scales, often with a planted
    # dependence, so pivots meet zero entries in their own column
    n = data.draw(st.integers(1, dim + 1))
    vecs = [[data.draw(_zpolys) for _ in range(dim)] for _ in range(n)]
    if data.draw(st.booleans()):
        mix = [Poly(data.draw(_zpolys)) for _ in range(n)]
        vecs.append([_zlist(sum((m * Poly(v[i]) for m, v in zip(mix, vecs)), Poly()))
                     for i in range(dim)])
    scales = [data.draw(_zpolys.filter(bool)) for _ in vecs]
    got = _first_dependence(zip(vecs, scales))
    want = ratfunc_dependence(
        [[RatFunc(Poly(x), Poly(s)) for x in w] for w, s in zip(vecs, scales)])
    if want is None:
        assert got is None
        return
    assert got is not None and len(got) == len(want)
    last = RatFunc(Poly(got[-1]))
    for c, d in zip(got, want):
        assert RatFunc(Poly(c)) == d * last
