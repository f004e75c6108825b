"""Coefficient generators: binomial-sum series, quarter-plane walks,
and diagonals of multivariate rational functions.

All generators return exact :class:`~dfinite.series.TruncSeries` data and
are independent of the operator machinery, so they double as oracles in
the test suite.

The binomial-sum and diagonal generators spend their time in big-integer
arithmetic, so they compute as few big integers as they can:

- :func:`gen_binomial_sum` carries each binomial factor as a whole row
  in the summation index from one term to the next, by an exact integer
  ratio in C loops (``map``), instead of recomputing it.
- :func:`gen_diagonal` first scales a rational spec to integers
  (x_i -> L x_i, and num times a common denominator), so that every
  cell of its sweep is a Python integer, and divides the scale out of
  each diagonal term at the end.  It divides by den's factors one at a
  time rather than by their product.  It finds them from the expanded
  den as contents: den's content as a polynomial in one variable is the gcd
  over Z of its coefficients, polynomials in the other variables,
  computed by the heuristic gcd GCDHEU (``_pgcd``), and the split is
  repeated until no factor splits.  A split is used only if the factors
  multiply back to den exactly, lie on den's exponent lattice and have
  constant term 1; otherwise den is one factor.  It then compresses the
  exponent lattice (when every exponent of a variable is a multiple of
  g, x^g becomes x) and expands num/den over the smaller box one whole
  row at a time, in C loops (``map``, ``itertools.accumulate``) rather
  than cell by cell in Python, each row passing through one stage per
  factor.  Each stage fills only the span of each row that the diagonal
  reads through it and the later stages (``_spans``).

The sweep itself is ``_sweep.sweep``.  On a large box with 3 or more
variables and a second CPU, it runs over the lower rows here and over the
upper rows in a worker process, which this process feeds the band of
lower rows the upper ones read, one layer at a time.  The worker is
``_sweep.py`` run as a script by ``python -S -I``: that module imports
nothing of ``dfinite``, so the worker starts in about 12 ms.  A worker
made by ``multiprocessing``'s spawn would import ``dfinite``, numpy and
sympy first (0.15 s), and ``os.fork`` is unsafe here because importing
numpy starts threads.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain, product, repeat
from math import comb, gcd, lcm
from operator import add, floordiv, mul, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputError
from .rationals import QQ, Q0
from .series import TruncSeries

# ---------------------------------------------------------------------------
# Binomial sums  sum_k C(n,k)^p0 * C(n+k,k)^p1 * ... * C(n+mk,k)^pm
# ---------------------------------------------------------------------------


def _check_terms(n_terms: int) -> None:
    if not isinstance(n_terms, int):
        raise InputError("the number of terms %r is not an integer" % (n_terms,))
    if n_terms < 1:
        raise InputError("need at least one term")


def _progression(start: int, step: int, count: int) -> Iterable[int]:
    """start, start + step, ..., count terms, with no arithmetic per term."""
    return range(start, start + step * count, step) if step else repeat(start, count)


def gen_binomial_sum(powers: Sequence[int], n_terms: int) -> TruncSeries:
    """First n_terms coefficients of the binomial-sum series for ``powers``.

    ``powers[j]`` is the exponent of C(n + j*k, k) in the summand, with the
    j = 0 factor being C(n, k); powers[0] must be >= 1.

    Each factor is kept as a whole row k = 0..n and carried from row
    n - 1 to row n by two ``map`` calls: C(n + jk, k) is C(n - 1 + jk, k)
    times (n + jk), divided exactly by (n + (j - 1)k), for k < n, and
    both sequences of small factors are arithmetic progressions in k
    (``_progression``); the new entry C(n + jn, n) comes from
    ``math.comb``.  The same two calls serve every j.  The factors that
    share an exponent are multiplied before one ``map(pow, ...)``, and
    the row of summands is added up by ``sum``.
    """
    p = list(powers)
    if not all(isinstance(e, int) for e in p):
        raise InputError("the powers %r are not all integers" % (p,))
    if not p or p[0] < 1:
        raise InputError("powers[0] must be at least 1")
    if any(e < 0 for e in p):
        raise InputError("negative exponents not supported")
    _check_terms(n_terms)
    rows = {j: [] for j, e in enumerate(p) if e}  # rows[j][k] = C(n + j*k, k)
    by_exp: Dict[int, List[int]] = {}
    for j in rows:
        by_exp.setdefault(p[j], []).append(j)
    out = []
    for n in range(n_terms):
        for j, row in rows.items():
            row = list(map(floordiv, map(mul, row, _progression(n, j, n)),
                           _progression(n, j - 1, n)))
            row.append(comb(n + j * n, n))
            rows[j] = row
        terms = None
        for e, js in by_exp.items():
            part = rows[js[0]]
            for j in js[1:]:
                part = map(mul, part, rows[j])
            if e > 1:
                part = map(pow, part, repeat(e))
            terms = part if terms is None else map(mul, terms, part)
        out.append(QQ(sum(terms)))
    return TruncSeries(out)


# ---------------------------------------------------------------------------
# Quarter-plane walks
# ---------------------------------------------------------------------------


class StepSet:
    """Finite nonempty set of integer steps in the plane.

    Each step is a pair of ``int``s; anything else is an
    :class:`InputError`.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[Tuple[int, int]]):
        ss = frozenset((a, b) for a, b in steps)
        for step in ss:
            if not all(isinstance(x, int) for x in step):
                raise InputError("step %r is not a pair of integers" % (step,))
        if not ss:
            raise InputError("empty step set")
        self.steps = ss

    def __repr__(self) -> str:
        return "StepSet(%s)" % sorted(self.steps)


TRIDENT_STEPS = StepSet([(1, 1), (0, 1), (-1, 1), (0, -1)])


def gen_walk(steps: StepSet, n_terms: int) -> TruncSeries:
    """Counts of quarter-plane walks from the origin, by length.

    Dynamic programming over the end positions of the walks of each
    length.  Every walk is counted, so no reachable position is pruned.
    """
    _check_terms(n_terms)
    state: Dict[Tuple[int, int], int] = {(0, 0): 1}
    counts = [1]
    for _ in range(1, n_terms):
        nxt: Dict[Tuple[int, int], int] = {}
        for (x, y), ways in state.items():
            for dx, dy in steps.steps:
                nx, ny = x + dx, y + dy
                if nx < 0 or ny < 0:
                    continue
                key = (nx, ny)
                nxt[key] = nxt.get(key, 0) + ways
        state = nxt
        counts.append(sum(state.values()))
    return TruncSeries([QQ(c) for c in counts])


# ---------------------------------------------------------------------------
# Diagonals of rational functions
# ---------------------------------------------------------------------------


class MPoly:
    """Sparse multivariate polynomial: {exponent tuple: rational coefficient}.

    Exponents are nonnegative ``int``s and coefficients ``int``s or
    ``Fraction``s; anything else is an :class:`InputError`.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Tuple[int, ...], object]):
        self.nvars = nvars
        clean = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != nvars or not all(isinstance(x, int) and x >= 0 for x in e):
                raise InputError("bad exponent tuple %r" % (e,))
            if isinstance(c, int):
                c = QQ(c)
            elif not isinstance(c, Fraction):
                raise InputError("coefficient %r is not an integer or a Fraction" % (c,))
            if c != 0:
                clean[e] = clean.get(e, Q0) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, Q0)

    def __repr__(self) -> str:
        return "MPoly(%d vars, %d terms)" % (self.nvars, len(self.terms))


class DiagonalSpec:
    """Diagonal extraction problem num/den along all variables."""

    __slots__ = ("num", "den", "vars")

    def __init__(self, num: MPoly, den: MPoly, vars: Sequence[str]):
        if len(vars) != num.nvars or len(vars) != den.nvars:
            raise InputError("variable list does not match polynomial arity")
        if not vars:
            raise InputError("a diagonal needs at least one variable")
        if den.constant_term() == 0:
            raise InputError("denominator must be a unit at the origin")
        self.num = num
        self.den = den
        self.vars = tuple(vars)


# Polynomials as {exponent tuple: coefficient} dicts with no zero
# coefficient, with integer coefficients for splitting a diagonal's
# denominator (``_pmul`` also builds ``apery_diagonal_spec``'s rationals).

def _pmul(a: Dict, b: Dict) -> Dict:
    out: Dict[Tuple[int, ...], object] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _pdiv(a: Dict, b: Dict):
    """a / b when b divides a over Z, else None.  Lexicographic division:
    a quotient term outside the box deg_i(a) - deg_i(b), or a leading
    coefficient that b's does not divide, means no exact quotient."""
    lead = max(b)
    cap = [max(e[i] for e in a) - max(e[i] for e in b) for i in range(len(lead))]
    rem, quo = dict(a), {}
    while rem:
        top = max(rem)
        e = tuple(map(sub, top, lead))
        if any(x < 0 or x > c for x, c in zip(e, cap)) or rem[top] % b[lead]:
            return None
        q = quo[e] = rem[top] // b[lead]
        for t, c in b.items():
            u = tuple(map(add, e, t))
            r = rem.get(u, 0) - q * c
            if r:
                rem[u] = r
            else:
                del rem[u]
    return quo


def _pgcd(polys: List[Dict]):
    """gcd over Z of nonzero integer polynomials, or None if the heuristic
    fails six times.  GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput.
    1989): with the integer contents taken out, put xi for the last
    variable that occurs, take the gcd of the images recursively (of the
    integers once no variable is left), rebuild it from its xi-adic digits
    in (-xi/2, xi/2] and keep its primitive part if that divides every
    polynomial; else grow xi and try again."""
    ints = [gcd(*p.values()) for p in polys]
    k = len(next(iter(polys[0])))
    live = [i for i in range(k) if any(e[i] for p in polys for e in p)]
    if not live:
        return {(0,) * k: gcd(*ints)}
    i = live[-1]
    polys = [{e: c // n for e, c in p.items()} for p, n in zip(polys, ints)]
    xi = 2 * min(max(map(abs, p.values())) for p in polys) + 2
    for _ in range(6):
        images = []
        for p in polys:
            img: Dict[Tuple[int, ...], int] = {}
            for e, c in p.items():
                u = e[:i] + (0,) + e[i + 1:]
                img[u] = img.get(u, 0) + c * xi ** e[i]
            img = {e: c for e, c in img.items() if c}
            if img:
                images.append(img)
        h = _pgcd(images)
        if h is not None:
            g: Dict[Tuple[int, ...], int] = {}
            for e, c in h.items():
                d = 0
                while c:
                    r = c % xi
                    if 2 * r > xi:
                        r -= xi
                    if r:
                        g[e[:i] + (d,) + e[i + 1:]] = r
                    c = (c - r) // xi
                    d += 1
            n = gcd(*g.values())
            g = {e: c // n for e, c in g.items()}
            if all(_pdiv(p, g) is not None for p in polys):
                n = gcd(*ints)
                return {e: c * n for e, c in g.items()}
        xi = xi * 73794 // 27011
    return None


def _content_factors(den: Dict) -> List[Dict]:
    """The integer polynomial den split into factors by contents.

    The content of a factor as a polynomial in x_i, the gcd over Z of its
    coefficients (polynomials in the other variables), splits it into
    that content and the primitive part, until no factor splits.  The
    split is kept only if (a) the factors multiply back to den, (b) every
    exponent of variable i in them is a multiple of the gcd of den's
    exponents of x_i (so compressing the lattice still applies), and (c)
    each factor has constant term 1; otherwise den is the one factor.
    """
    k = len(next(iter(den)))
    one = (0,) * k
    factors, todo = [], [den]
    while todo:
        p = todo.pop()
        for i in range(k):
            coeffs: Dict[int, Dict] = {}
            for e, c in p.items():
                coeffs.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
            g = _pgcd(list(coeffs.values())) if len(coeffs) > 1 else None
            if g is not None and any(any(e) for e in g):
                if g.get(one, 0) < 0:
                    g = {e: -c for e, c in g.items()}
                todo += [g, _pdiv(p, g)]
                break
        else:
            factors.append(p)
    lattice = [gcd(*(e[i] for e in den)) for i in range(k)]
    if (reduce(_pmul, factors) != den or any(f.get(one) != 1 for f in factors)
            or any(x % gi if gi else x for f in factors for e in f for x, gi in zip(e, lattice))):
        return [den]
    return factors


def _spans(stages: List[List[Tuple[int, ...]]], ext: Sequence[int],
           reads: Sequence[Tuple[int, ...]]) -> List[Dict[Tuple[int, ...], Tuple[int, int]]]:
    """The cells each stage of ``gen_diagonal``'s sweep fills, as one span
    (lo, hi) on the last axis per row (a cell without its last coordinate).

    ``stages[j]`` holds the exponents of stage j's terms in the box
    0..ext; stage j's F_j[e] needs F_j[e - t] for each of its terms t.
    The last stage is read on the cells ``reads``, and stage j on the
    cells of stage j + 1.  Going backward from the reads, each stage's
    spans are closed under its terms: rows in decreasing order (r - t
    is a smaller row, so a row's span is final when it is reached), each
    term t off the last axis widening row r - t by (max(0, lo - s),
    hi - s), s = t's last coordinate, and a term on the last axis alone
    putting lo at 0.  So a stage's spans hold the next stage's, and every
    cell in them is exact once they are filled.
    """
    # flat rows, each axis padded below its start so that r - t stays on the grid
    box = ext[:-1]
    pad = [max((t[i] for terms in stages for t in terms), default=0) for i in range(len(box))]
    strides, size = [0] * len(box), 1
    for i in range(len(box) - 1, -1, -1):
        strides[i] = size
        size *= box[i] + 1 + pad[i]
    flat = [sum(map(mul, pad, strides))]  # box rows, in the order of ``cells``
    for x, st in zip(box, strides):
        flat = [f + i * st for f in flat for i in range(x + 1)]
    cells = list(product(*(range(x + 1) for x in box)))
    lo, hi = [ext[-1] + 1] * size, [-1] * size  # hi < 0: no span
    for e in reads:
        r = flat[0] + sum(map(mul, e[:-1], strides))
        lo[r], hi[r] = min(lo[r], e[-1]), max(hi[r], e[-1])
    out = []
    for terms in reversed(stages):
        lo, hi = lo[:], hi[:]
        along = any(not any(t[:-1]) for t in terms)
        cross = [(sum(map(mul, t[:-1], strides)), t[-1]) for t in terms if any(t[:-1])]
        for r in reversed(flat):
            h = hi[r]
            if h < 0:
                continue
            v = lo[r]
            if along and v:
                v = lo[r] = 0
            for d, s in cross:
                if h >= s:
                    q = r - d
                    w = v - s if v > s else 0
                    if w < lo[q]:
                        lo[q] = w
                    if h - s > hi[q]:
                        hi[q] = h - s
        out.append({row: (lo[r], hi[r]) for row, r in zip(cells, flat) if hi[r] >= 0})
    out.reverse()
    return out


# A sweep of at most this many cells runs in-process.  The worker takes
# about 15 ms to start and read its job, and on a 2-CPU machine the split
# went from slower to faster than one process between 130 000 and 250 000
# cells (criterion 6 (i) and (ii) at 50 to 85 terms).
_SPLIT_CELLS = 250_000


def _split_at(spans: List[Dict[Tuple[int, ...], Tuple[int, int]]], ext: Sequence[int]) -> Optional[int]:
    """The axis-1 coordinate from which a worker process sweeps the rows
    of ``gen_diagonal``'s box, or None to sweep every row here.

    The split needs a row axis to split (3 or more axes), a second usable
    CPU, an interpreter and ``_sweep.py`` on disk, and more than
    ``_SPLIT_CELLS`` cells in ``spans``.  It falls at the work median:
    the lower rows hold at least half of the cells, and the upper rows
    must hold some.
    """
    from . import _sweep

    if len(ext) < 3:
        return None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    if cpus < 2 or not (sys.executable and os.path.isfile(sys.executable)
                        and os.path.isfile(_sweep.__file__)):
        return None
    work = [0] * (ext[1] + 1)
    for need in spans:
        for row, (lo, hi) in need.items():
            work[row[1]] += hi + 1 - lo
    total = sum(work)
    if total <= _SPLIT_CELLS:
        return None
    done = 0
    for cut, w in enumerate(work, 1):
        done += w
        if 2 * done >= total:
            break
    return cut if done < total else None


def gen_diagonal(spec: DiagonalSpec, n_terms: int) -> TruncSeries:
    """Diagonal coefficients [x1^n ... xk^n] (num/den) for n < n_terms.

    Expands F = num/den inside a box by dividing by den's factors in
    turn, F_1 = num/D_1, F_j = F_(j-1)/D_j, each division the convolution
    recurrence F_j[e] = F_(j-1)[e] - sum_t D_j[t] F_j[e - t] (D_j[0] = 1),
    in seven steps:

    - Scale to integers.  With c0 = den[0] and L the lcm of the
      denominators of den/c0, x_i -> L x_i turns a term c x^e of den/c0
      into c L^|e| x^e, an integer since |e| >= 1 off the constant term;
      num/c0 scaled the same way is made integral by a factor M.  The
      diagonal of M num(Lx) / (den(Lx)/c0) is M L^(kn) d_n, so each
      term is divided by M L^(kn) at the end.  An integral spec has
      L = M = 1.
    - Split den.  The scaled den is split into content factors
      (``_content_factors``: each factor with constant term 1, on den's
      exponent lattice, multiplying back to den exactly); if it does not
      split, it is one factor.  Two factors of 3 and 2 terms cost 5
      operations a cell where their product may cost 10.  The factor
      with the most terms is divided first, where the cells are
      smallest.
    - Compress the lattice.  g_i is the gcd of the exponents of variable i
      over the terms of num and den; substituting x_i^(g_i) -> x_i shrinks
      the box g_i-fold along that axis.  A term with lcm(g) not dividing n
      is 0 and costs nothing; a variable in no term (g_i = 0) leaves only
      n = 0.
    - Order the axes.  The diagonal is symmetric in the variables, so the
      last axis is the one fewest factor terms lie on alone (ties go to
      the longer axis); the first axis is swept layer by layer, and the
      axes between are rows.  The layout is shared by all factors.
    - Sweep whole rows, one stage per factor.  Every axis but the first
      is flattened, padded so that reads before the start of an axis land
      on cells that stay zero, so a factor's term is a constant offset
      and, unless it lies on the last axis alone, contributes a whole row
      as one ``map`` over a slice of an earlier layer or row of its own
      stage; terms whose coefficients have the same size share one
      multiplication.  Only the terms on the last axis alone run along
      the row in order (``accumulate`` when there is one of them).  Each
      row goes through the stages in turn: the first starts from num's
      terms, stage j from the row stage j - 1 has just made, and each
      stage keeps only the window of layers its own terms read.
    - Fill only what the diagonal reads.  The last stage is read on the
      diagonal cells, stage j on the cells stage j + 1 fills, and F_j[e]
      needs F_j[e - t] for each term t of D_j.  ``_spans`` closes these
      sets backward, as one span [lo, hi] on the last axis per row and
      stage (lo = 0 when a term lies on the last axis alone), so every
      filled cell is exact and stage j's span is a slice of stage
      j - 1's.  A stage fills only its spans and adds only the num terms
      inside them; a row with no span is skipped in that stage and every
      later one.  Criterion 6 (i) at 120 terms fills 1 432 820 and
      295 240 of the box's 1 728 000 cells in its two stages.
    - Split the rows between two processes (``_split_at``,
      ``_sweep.sweep_pair``).  With 3 or more variables, 2 usable CPUs
      and more than ``_SPLIT_CELLS`` cells in the spans, the rows are cut
      on axis 1 at the work median: this process sweeps the lower rows
      and a worker the upper ones, layer by layer at the same time.  Term
      offsets are nonnegative, so a row reads only lower rows, and the
      upper rows read the lower ones only in the band of rows just below
      the cut, as many as the largest axis-1 offset of a factor term.
      After each layer this process sends the worker that band, one
      contiguous slice per stage; the worker sends its diagonal cells
      back at the end.  Every cell is the same integer either way.
    """
    _check_terms(n_terms)
    k = spec.den.nvars
    one = (0,) * k
    c0 = spec.den.constant_term()
    den = {e: c / c0 for e, c in spec.den.terms.items() if e != one}
    scale = lcm(*(c.denominator for c in den.values()))
    den = {e: int(c * scale ** sum(e)) for e, c in den.items()}
    num = {e: c / c0 * scale ** sum(e) for e, c in spec.num.terms.items()}
    mult = lcm(*(c.denominator for c in num.values()))
    num = {e: int(c * mult) for e, c in num.items()}
    split = _content_factors({one: 1, **den})
    # later stages hold larger cells, so the longest factor goes first
    split.sort(key=len, reverse=True)
    factors = [{e: -c for e, c in f.items() if e != one} for f in split]

    g = [gcd(*(e[i] for e in chain(den, num))) for i in range(k)]
    period = lcm(*g)
    top = (n_terms - 1) // period if period else 0
    # diagonal cell t (the coefficient of n = t*period) sits at t*walk[i] on axis i
    walk = [period // gi if gi else 0 for gi in g]
    terms = [e for f in factors for e in f]
    alone = [sum(1 for e in terms if not any(e[:i] + e[i + 1:])) for i in range(k)]
    last = min(range(k), key=lambda i: (alone[i], -walk[i]))
    axes = [i for i in range(k) if i != last] + [last]
    if k == 1:
        axes = [None] + axes  # a one-layer first axis

    def squeeze(e: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(e[i] // g[i] if i is not None and g[i] else 0 for i in axes)

    walk = [0 if i is None else walk[i] for i in axes]
    ext = [top * w for w in walk]
    factors = [[(squeeze(e), c) for e, c in f.items()] for f in factors]

    # flat layout of one layer: axes 1.., each padded past its end
    dims = len(axes)
    pad = [max((e[i] for f in factors for e, _ in f), default=0) for i in range(dims)]
    strides = [0] * dims
    size = 1
    for i in range(dims - 1, 0, -1):
        strides[i] = size
        size *= ext[i] + 1 + pad[i]
    margin = sum(p * s for p, s in zip(pad, strides))

    def offset(e: Tuple[int, ...]) -> int:
        return sum(t * s for t, s in zip(e, strides))

    rows = [(mid, margin + offset((0,) + mid + (0,)))
            for mid in product(*(range(x + 1) for x in ext[1:-1]))]
    stages = []
    for f in factors:
        # terms off the last axis, grouped by the size of their coefficient
        # so that each group costs one multiplication per cell:
        # m * (r1 +- r2 ...), its first term taken with a plus sign (m is
        # negated if none has one)
        cross: Dict[object, List[Tuple[int, int, bool]]] = {}
        for e, c in f:
            if any(e[:-1]):
                cross.setdefault(abs(c), []).append((e[0], offset(e), c > 0))
        groups = []
        for m, ts in cross.items():
            ts.sort(key=lambda t: not t[2])
            if not ts[0][2]:
                m, ts = -m, [(t0, off, not pos) for t0, off, pos in ts]
            groups.append((m, ts))
        along = [(e[-1], c) for e, c in f if not any(e[:-1])]
        window = max((t[0] for ts in cross.values() for t in ts), default=0) + 1
        stages.append((groups, along, window))
    sources: Dict[Tuple[int, int], List] = {}
    for e, c in num.items():
        e = squeeze(e)
        if all(a <= x for a, x in zip(e, ext)):
            row = margin + offset(e[:-1] + (0,))
            sources.setdefault((e[0], row), []).append((e[-1], c))
    diag = [tuple(t * w for w in walk) for t in range(top + 1)]
    spans = _spans([[e for e, _ in f] for f in factors], ext, diag)
    reads: Dict[int, List[Tuple[int, int]]] = {}
    for t, cell in enumerate(diag):
        reads.setdefault(cell[0], []).append((t * period, margin + offset(cell)))

    from . import _sweep  # not imported with the package: only a diagonal needs it

    cut = _split_at(spans, ext)
    if cut is None:
        cells = _sweep.sweep(ext[0] + 1, margin + size, stages, rows, spans, sources, reads)
    else:
        # rows from axis-1 coordinate ``cut`` on are the worker's; they read
        # the lower rows only through the band
        first = margin + cut * strides[1]
        reach = max((e[1] for f in factors for e, _ in f), default=0)
        band = (first - min(cut, reach) * strides[1], first) if reach else None

        def part(upper: bool) -> tuple:
            return (ext[0] + 1, margin + size, stages,
                    [(mid, base) for mid, base in rows if (base >= first) == upper],
                    [{row: span for row, span in need.items() if (row[1] >= cut) == upper}
                     for need in spans],
                    {key: src for key, src in sources.items() if (key[1] >= first) == upper},
                    {a: [(n, pos) for n, pos in ns if (pos >= first) == upper] for a, ns in reads.items()})

        cells = _sweep.sweep_pair(part(False), part(True), band)
    out = [0] * n_terms
    for n, c in cells:
        out[n] = c
    return TruncSeries([QQ(c, mult * scale ** (k * n)) for n, c in enumerate(out)])


def apery_diagonal_spec(p: int, q: int) -> DiagonalSpec:
    """The (p+q)-variable diagonal representation of the binomial power
    series with exponents (p, q): denominator
    (prod_j (1-y_j) - x_1) * prod_{k>=2} (1-x_k) - prod_k x_k * prod_j y_j.
    """
    if p < 1 or q < 1:
        raise InputError("p and q must be positive")
    k = p + q

    # variables 0..p-1 are x_1..x_p, variables p..p+q-1 are y_1..y_q
    one = {tuple([0] * k): QQ(1)}

    def var(i) -> Dict:
        e = [0] * k
        e[i] = 1
        return {tuple(e): QQ(1)}

    def sub(a, b) -> Dict:
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, Q0) - c
        return {e: c for e, c in out.items() if c != 0}

    prod_y = one
    for j in range(q):
        prod_y = _pmul(prod_y, sub(one, var(p + j)))
    first = sub(prod_y, var(0))
    for i in range(1, p):
        first = _pmul(first, sub(one, var(i)))
    all_vars = one
    for i in range(k):
        all_vars = _pmul(all_vars, var(i))
    den = sub(first, all_vars)
    names = ["x%d" % (i + 1) for i in range(p)] + ["y%d" % (j + 1) for j in range(q)]
    return DiagonalSpec(MPoly(k, one), MPoly(k, den), names)


def binomial_double_product_spec(j: int) -> DiagonalSpec:
    """Bivariate diagonal 1 / (1 - z*(1+y)*(y + (1+y)^j)).

    Its diagonal is sum_k C(n,k) * C(n+j*k, k).
    """
    if j < 0:
        raise InputError("j must be nonnegative")
    # expand (1+y)*(y + (1+y)^j) as a polynomial in y
    coeffs = [0] * (j + 2)
    coeffs[1] += 1  # y
    for t in range(j + 1):
        coeffs[t] += comb(j, t)
    poly_y = [0] * (j + 3)
    for t in range(j + 2):
        poly_y[t] += coeffs[t]
        poly_y[t + 1] += coeffs[t]
    terms = {(0, 0): QQ(1)}
    for t, c in enumerate(poly_y):
        if c:
            terms[(1, t)] = QQ(-c)
    return DiagonalSpec(MPoly(2, {(0, 0): QQ(1)}), MPoly(2, terms), ["z", "y"])
