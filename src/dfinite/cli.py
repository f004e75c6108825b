"""Batch command-line interface.

Every subcommand prints a single JSON object on stdout.  Exit codes:
0 for any computed verdict or result, 2 for input errors, 3 when a
precision or resource limit is hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .errors import DFiniteError, InputError, PrecisionTooLow
from .fileio import (
    bivar_to_json,
    load_diagonal_spec,
    load_problem,
    op_to_json,
    read_json,
    series_to_json,
)
from .generators import (
    StepSet,
    TRIDENT_STEPS,
    apery_diagonal_spec,
    gen_binomial_sum,
    gen_diagonal,
    gen_walk,
)
from .minimize import MinimizeOptions, minimal_annihilator
from .polys import Poly
from .rationals import rat_from_str, rat_to_str
from .series import unroll
from .transcend import (
    TranscendOptions,
    diagonal_grade_bound,
    globally_bounded_test,
    transcendence_test,
    verify_report,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECISION = 3


def _emit(obj: Dict) -> None:
    json.dump(obj, sys.stdout, indent=None, separators=(",", ":"), sort_keys=True)
    sys.stdout.write("\n")


def _parse_point(text: str):
    from .local import SingularPoint

    text = text.strip()
    if text in ("inf", "infinity", "oo"):
        return SingularPoint.infinity()
    if text.startswith("poly:"):
        coeffs = [rat_from_str(t) for t in text[5:].split(",")]
        return SingularPoint.algebraic(Poly(coeffs))
    return SingularPoint.rational(rat_from_str(text))


def _parse_rat_list(text: str) -> List:
    return [rat_from_str(t) for t in text.split(",")]


def _parse_ints(text: str, option: str, count: Optional[int] = None) -> List[int]:
    """Comma-separated integers, count of them when count is given."""
    try:
        out = [int(t) for t in text.split(",")]
    except ValueError:
        raise InputError("%s takes comma-separated integers, not %r" % (option, text)) from None
    if count is not None and len(out) != count:
        raise InputError("%s takes %d comma-separated integers, not %r" % (option, count, text))
    return out


def _minimize_opts(args) -> MinimizeOptions:
    opts = MinimizeOptions()
    if getattr(args, "max_degree", None) is not None:
        opts.max_degree = args.max_degree
    if getattr(args, "precision", None) is not None:
        opts.max_precision = args.precision
    return opts


def _transcend_opts(args) -> TranscendOptions:
    return TranscendOptions(minimize=_minimize_opts(args))


def _cmd_test(args) -> int:
    op, init, _ = load_problem(args.file)
    rep = transcendence_test(op, init, _transcend_opts(args))
    _emit(rep.to_json())
    return EXIT_OK


def _cmd_test_gb(args) -> int:
    op, init, assertions = load_problem(args.file)
    if not assertions.get("globally_bounded", False) and not args.assume_gb:
        raise InputError(
            "globally bounded variant requires assertions.globally_bounded "
            "(or --assume-gb)"
        )
    rep = globally_bounded_test(op, init, _transcend_opts(args))
    _emit(rep.to_json())
    return EXIT_OK


def _cmd_minimize(args) -> int:
    op, init, _ = load_problem(args.file)
    res = minimal_annihilator(op, init, _minimize_opts(args))
    _emit({
        "status": res.status,
        "minimality": res.minimality,
        "order": res.operator.order,
        "degree": res.operator.degree(),
        "operator": op_to_json(res.operator),
        "search_log": [list(t) for t in res.search_log],
    })
    return EXIT_OK


def _cmd_indicial(args) -> int:
    from .local import indicial_branches

    op, _, _ = load_problem(args.file)
    point = _parse_point(args.point)
    out = []
    for data in indicial_branches(op, point):
        entry = {
            "point": data.point.label(),
            "degree": data.degree,
            "rational_roots": [[rat_to_str(r), m] for r, m in data.rational_roots],
            "splits_distinct_rational": data.splits_distinct_rational,
        }
        if data.ring is None:
            entry["indicial"] = [rat_to_str(c) for c in data.as_q_poly().coeffs]
        else:
            entry["indicial_coordinates"] = [
                [rat_to_str(c) for c in Poly(e.coeffs).coeffs] for e in data.poly
            ]
        out.append(entry)
    _emit({"branches": out})
    return EXIT_OK


def _cmd_formal_solutions(args) -> int:
    from .local import formal_solutions

    op, _, _ = load_problem(args.file)
    point = _parse_point(args.point)
    basis = formal_solutions(
        op, point, args.order,
        mode="full" if args.logs else "flag",
        allow_irregular=args.allow_irregular,
    )
    sols = []
    for s in basis.solutions:
        exponent, logpow = s.leading()
        entry = {
            "exponent": rat_to_str(exponent),
            "log_power": logpow,
            "has_logs": s.has_logs(),
        }
        if args.logs:
            entry["layers"] = [
                [str(c) for c in layer] for layer in s.layers
            ]
        sols.append(entry)
    _emit({
        "point": basis.point.label(),
        "has_logarithms": basis.has_logarithms,
        "solutions": sols,
    })
    return EXIT_OK


def _cmd_pcurv(args) -> int:
    from .heuristics import p_curvature

    op, _, _ = load_problem(args.file)
    reports = []
    for p in _parse_ints(args.primes, "--primes"):
        rep = p_curvature(op, p)
        reports.append({
            "prime": rep.prime,
            "is_zero": rep.is_zero,
            "matrix_rank": rep.matrix_rank,
            "bad_prime": rep.bad_prime,
            "reason": rep.reason,
        })
    _emit({"reports": reports})
    return EXIT_OK


def _cmd_hypergeom(args) -> int:
    from .hypergeom import HypParams, interlacing_criterion

    params = HypParams(_parse_rat_list(args.a), _parse_rat_list(args.b) if args.b else [])
    verdict, reason = interlacing_criterion(params)
    label = {
        "algebraic": "algebraic-by-interlacing",
        "transcendental": "transcendental-by-interlacing",
        "inapplicable": "inapplicable",
    }[verdict]
    _emit({"verdict": label, "reason": reason})
    return EXIT_OK


def _cmd_guess_alg(args) -> int:
    from .algebraic import prove_algebraic

    op, init, _ = load_problem(args.file)
    got = prove_algebraic(op, init, max_dy=args.max_dy, max_dz=args.max_dz)
    if got is None:
        _emit({"certified": False, "polynomial": None})
        return EXIT_OK
    poly, ann = got
    _emit({
        "certified": True,
        "polynomial": bivar_to_json(poly),
        "root_annihilator": op_to_json(ann),
    })
    return EXIT_OK


def _cmd_grade_bound(args) -> int:
    op, init, _ = load_problem(args.file)
    res = minimal_annihilator(op, init, _minimize_opts(args))
    bound = diagonal_grade_bound(res.operator)
    _emit({
        "grade_bound": bound,
        "minimal_order": res.operator.order,
        "minimization_status": res.status,
    })
    return EXIT_OK


def _cmd_gen(args) -> int:
    n = args.n
    if args.what == "apery":
        f = gen_binomial_sum(_parse_ints(args.powers, "--powers"), n)
    elif args.what == "walk":
        if args.steps == "trident":
            steps = TRIDENT_STEPS
        else:
            steps = StepSet(_parse_ints(chunk.strip().lstrip("(").rstrip(")"), "--steps", 2)
                            for chunk in args.steps.split(";"))
        f = gen_walk(steps, n)
    elif args.what == "diagonal":
        if args.spec:
            spec = load_diagonal_spec(args.spec)
        else:
            p, q = _parse_ints(args.powers, "--powers", 2)
            spec = apery_diagonal_spec(p, q)
        f = gen_diagonal(spec, n)
    elif args.what == "series":
        if not args.file:
            raise InputError("gen series needs --file")
        op, init, _ = load_problem(args.file)
        f = unroll(op, init, n)
    else:  # pragma: no cover
        raise InputError("unknown generator %r" % args.what)
    _emit({"coefficients": series_to_json(f)})
    return EXIT_OK


def _cmd_verify(args) -> int:
    op, init, _ = load_problem(args.file)
    report = read_json(args.report)
    ok, reason = verify_report(op, init, report)
    _emit({"verified": ok, "reason": reason, "verdict": report.get("verdict")})
    return EXIT_OK if ok else EXIT_INPUT


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, here and in every subcommand: exit 2
        self.print_usage(sys.stderr)
        _emit({"error": "input", "message": message})
        self.exit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="dfinite",
        description="Exact transcendence testing for D-finite power series",
    )
    ap.add_argument("--json", action="store_true", help="JSON output (the only mode)")
    ap.add_argument("--seed", type=int, default=0, help="accepted for interface stability")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--precision", type=int, default=None)

    p = sub.add_parser("test", help="transcendence test")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("test-gb", help="globally bounded variant")
    p.add_argument("file")
    p.add_argument("--assume-gb", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_test_gb)

    p = sub.add_parser("minimize", help="certified annihilator of minimal discovered order")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("indicial", help="indicial polynomial at a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help='e.g. "0", "1/2", "inf", "poly:1,-34,1"')
    p.set_defaults(func=_cmd_indicial)

    p = sub.add_parser("formal-solutions", help="Frobenius basis at a point")
    p.add_argument("file")
    p.add_argument("--point", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--logs", action="store_true", help="construct full logarithmic tails")
    p.add_argument("--allow-irregular", action="store_true")
    p.set_defaults(func=_cmd_formal_solutions)

    p = sub.add_parser("pcurv", help="p-curvature nullity modulo primes")
    p.add_argument("file")
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.set_defaults(func=_cmd_pcurv)

    p = sub.add_parser("hypergeom", help="interlacing criterion")
    p.add_argument("--a", required=True, help="comma-separated rationals")
    p.add_argument("--b", default="", help="comma-separated rationals (k-1 of them)")
    p.set_defaults(func=_cmd_hypergeom)

    p = sub.add_parser("guess-alg", help="guess and certify a minimal polynomial")
    p.add_argument("file")
    p.add_argument("--max-dy", type=int, default=8)
    p.add_argument("--max-dz", type=int, default=8)
    p.set_defaults(func=_cmd_guess_alg)

    p = sub.add_parser("grade-bound", help="diagonal-variable-count lower bound")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_grade_bound)

    p = sub.add_parser("gen", help="coefficient generators")
    p.add_argument("what", choices=["apery", "walk", "diagonal", "series"])
    p.add_argument("-n", type=int, required=True, help="number of terms")
    p.add_argument("--powers", default="2,2", help="binomial-sum exponents, e.g. 2,2")
    p.add_argument("--steps", default="trident", help='"trident" or "(1,1);(0,-1);..."')
    p.add_argument("--spec", default=None, help="diagonal spec JSON file")
    p.add_argument("--file", default=None, help="problem file for 'series'")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="replay a verdict report's certificate")
    p.add_argument("file")
    p.add_argument("report")
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except PrecisionTooLow as e:
        _emit({"error": "precision", "message": str(e)})
        return EXIT_PRECISION
    except InputError as e:
        _emit({"error": "input", "message": str(e)})
        return EXIT_INPUT
    except DFiniteError as e:
        _emit({"error": e.__class__.__name__, "message": str(e)})
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
