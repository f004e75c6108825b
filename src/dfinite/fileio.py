"""Problem-file and diagonal-spec parsing and JSON encodings.

A problem file is line-oriented JSON: operator coefficients as integer
polynomial coefficient lists (lowest degree first, one list per
derivative order) with an optional common denominator, initial terms as
exact rational strings, and optional assertion fields.  No floating
point appears anywhere in inputs or certificates.  Every input file
(problem, verdict report, diagonal spec) is read by ``read_json``, and a
file that cannot be read, is not JSON or is not shaped as described
raises InputError.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .errors import InputError
from .generators import DiagonalSpec, MPoly
from .ore import DiffOp
from .rationals import QQ, rat_from_str, rat_to_str
from .series import TruncSeries


def op_to_json(op: DiffOp) -> List[List[str]]:
    return [[str(c) for c in p] for p in op.rows]


def _is_int(x) -> bool:
    """A JSON integer: ``true`` and ``false`` are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def op_from_json(data, denominator: int = 1) -> DiffOp:
    if not isinstance(data, list) or not all(isinstance(poly, list) for poly in data):
        raise InputError("an operator is a list of coefficient lists")
    coeffs = []
    for poly in data:
        cs = []
        for c in poly:
            if isinstance(c, str):
                cs.append(rat_from_str(c))
            elif _is_int(c):
                cs.append(QQ(c, denominator))
            else:
                raise InputError("coefficients must be integers or 'p/q' strings")
        coeffs.append(cs)
    return DiffOp(coeffs)


def series_to_json(f: TruncSeries) -> List[str]:
    return [rat_to_str(c) for c in f.coeffs]


def series_from_json(data) -> TruncSeries:
    if not isinstance(data, list):
        raise InputError("series terms come as a list")
    out = []
    for c in data:
        if isinstance(c, str):
            out.append(rat_from_str(c))
        elif _is_int(c):
            out.append(QQ(c))
        else:
            raise InputError("series terms must be integers or 'p/q' strings")
    return TruncSeries(out)


def read_json(path: str):
    """The JSON value in a file; an unreadable file or one that is not
    JSON raises InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InputError("malformed JSON in %s: %s" % (path, e))


def load_problem(path: str) -> Tuple[DiffOp, TruncSeries, Dict]:
    data = read_json(path)
    if not isinstance(data, dict):
        raise InputError("a problem file holds a JSON object")
    if "operator" not in data or "initial_terms" not in data:
        raise InputError("problem file needs 'operator' and 'initial_terms'")
    den = data.get("denominator", 1)
    if not _is_int(den) or den == 0:
        raise InputError("'denominator' must be a nonzero integer")
    op = op_from_json(data["operator"], den)
    if op.is_zero():
        raise InputError("operator is zero")
    init = series_from_json(data["initial_terms"])
    assertions = data.get("assertions", {})
    if not isinstance(assertions, dict):
        raise InputError("'assertions' must be an object")
    return op, init, assertions


def _mpoly(nvars: int, pairs) -> MPoly:
    """MPoly from JSON [coefficient, exponents] pairs; a repeated monomial
    sums.  A coefficient is an integer or a "p/q" string."""
    if not isinstance(pairs, list) or not all(
            isinstance(t, list) and len(t) == 2 and isinstance(t[1], list)
            and all(_is_int(x) for x in t[1]) for t in pairs):
        raise InputError("spec terms are [coefficient, [exponent, ...]] pairs")
    terms = {}
    for c, e in pairs:
        if isinstance(c, str):
            c = rat_from_str(c)
        elif not _is_int(c):
            raise InputError("spec coefficients must be integers or 'p/q' strings")
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return MPoly(nvars, terms)


def load_diagonal_spec(path: str) -> DiagonalSpec:
    """The diagonal spec in a JSON file: an object with a list of
    variable names and the terms of 'num' and 'den'."""
    data = read_json(path)
    if not isinstance(data, dict) or any(key not in data for key in ("vars", "num", "den")):
        raise InputError("a diagonal spec is an object with 'vars', 'num' and 'den'")
    if not isinstance(data["vars"], list) or not all(isinstance(v, str) for v in data["vars"]):
        raise InputError("spec 'vars' is a list of variable names")
    nvars = len(data["vars"])
    return DiagonalSpec(_mpoly(nvars, data["num"]), _mpoly(nvars, data["den"]), data["vars"])


def bivar_to_json(p) -> List[List[str]]:
    return [[str(c) for c in row] for row in p.rows]
