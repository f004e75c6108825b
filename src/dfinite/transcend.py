"""Transcendence testing for D-finite power series.

``transcendence_test`` minimizes the input operator, then inspects each
singular point of the minimal operator: a non-Fuchsian point, an
indicial polynomial that fails to split into distinct rational linear
factors, or a logarithm in the local solution basis each certify
transcendence.  If every point passes, the test fails (no conclusion).

``globally_bounded_test`` is the same scan for series asserted to be
globally bounded; the logarithm check runs only at the origin, and a
clean pass is reported as algebraic, a verdict conditional on the
semisimple-local-monodromy conjecture for such series.

Verdicts carry machine-checkable certificates.  ``verify_report``
recomputes each deciding step with the scan's own check,
``_branch_step``, on the branches of the reported point, and accepts it
only if one branch yields the reported step field for field; a pass step
is replayed by rescanning every singular point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import (
    InconsistentInitialConditions,
    InputError,
    InsufficientInitialConditions,
)
from .fileio import op_to_json
from .local import (IndicialData, SingularPoint, _exponent_classes, _frobenius, indicial_branches,
                    singularities)
from .minimize import (
    CERTIFIED_ANNIHILATOR,
    HEURISTIC_MINIMAL,
    INPUT_RETURNED,
    NOT_SEARCHED,
    MinimizationResult,
    MinimizeOptions,
    _minimize,
    certify_annihilates,
)
from .ore import DiffOp
from .polys import Poly, format_poly
from .rationals import QQ, rat_to_str
from .series import TruncSeries, validate_init

VERDICT_T = "T"
VERDICT_A = "A"
VERDICT_FAIL = "FAIL"

CONF_CERTIFIED = "certified-modulo-minimality"
CONF_CONJECTURAL = "conjectural-christol-andre"
CONF_HEURISTIC = "heuristic"

STEP_MINIMAL = "minimal-operator"
STEP_NOT_FUCHSIAN = "not-fuchsian"
STEP_NONSPLITTING = "nonsplitting-indicial"
STEP_LOGARITHM = "logarithm-detected"
STEP_ALL_PASSED = "all-points-passed"

# deciding step kinds, by the name their replay failure reports
_DECIDING_NAMES = {
    STEP_NOT_FUCHSIAN: "not-fuchsian",
    STEP_NONSPLITTING: "nonsplitting",
    STEP_LOGARITHM: "logarithm",
}

_NOT_PINNED = "initial terms do not pin down a solution: %s"

# (status, minimality) pairs of a minimal-operator step: a certified
# annihilator comes from a search, the input operator from a search that
# found none or from no search
_MINIMAL_KINDS = {
    (CERTIFIED_ANNIHILATOR, HEURISTIC_MINIMAL),
    (INPUT_RETURNED, HEURISTIC_MINIMAL),
    (INPUT_RETURNED, NOT_SEARCHED),
}


def _point_json(point: SingularPoint):
    if point.kind == SingularPoint.RATIONAL:
        return {"kind": "rational", "value": rat_to_str(point.value)}
    if point.kind == SingularPoint.ALGEBRAIC:
        return {"kind": "algebraic",
                "modulus": [rat_to_str(c) for c in point.modulus.coeffs]}
    return {"kind": "infinity"}


def _point_from_json(obj) -> SingularPoint:
    from .rationals import rat_from_str

    if obj["kind"] == "rational":
        return SingularPoint.rational(rat_from_str(obj["value"]))
    if obj["kind"] == "algebraic":
        return SingularPoint.algebraic(Poly([rat_from_str(c) for c in obj["modulus"]]))
    return SingularPoint.infinity()


@dataclass
class CertificateStep:
    kind: str
    payload: Dict

    def to_json(self) -> Dict:
        out = {"kind": self.kind}
        out.update(self.payload)
        return out

    def display(self) -> str:
        p = self.payload
        if self.kind == STEP_NOT_FUCHSIAN:
            return "NotFuchsian(%s, deg %s < order %s)" % (
                p["point_label"], p["indicial_degree"], p["order"])
        if self.kind == STEP_NONSPLITTING:
            return "NonsplittingIndicial(%s, %s)" % (p["point_label"], p["indicial"])
        if self.kind == STEP_LOGARITHM:
            return "LogarithmDetected(%s, exponent %s)" % (
                p["point_label"], p.get("exponent", "?"))
        if self.kind == STEP_MINIMAL:
            return "MinimalOperator(order %s, %s)" % (p["order"], p["status"])
        return "AllPointsPassed"


@dataclass
class VerdictReport:
    verdict: str
    confidence: str
    certificate: List[CertificateStep]
    timings: Dict[str, float] = field(default_factory=dict)
    operator: Optional[DiffOp] = None

    def to_json(self) -> Dict:
        out = {
            "verdict": self.verdict,
            "confidence": self.confidence,
            "certificate": [s.to_json() for s in self.certificate],
            "certificate_display": [s.display() for s in self.certificate],
        }
        if self.operator is not None:
            out["minimal_operator"] = op_to_json(self.operator)
        out["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return out


@dataclass
class TranscendOptions:
    minimize: MinimizeOptions = field(default_factory=MinimizeOptions)
    skip_minimization: bool = False


def _indicial_display(data: IndicialData) -> str:
    if data.ring is None:
        return format_poly(data.monic_q_poly(), "x")
    return " + ".join("(%s)*x^%d" % (format_poly(Poly(e.coeffs), "a"), j)
                      for j, e in enumerate(data.poly))


def _branch_step(op: DiffOp, data: IndicialData, frobenius: bool) -> Optional[CertificateStep]:
    """The step one branch certifies, or None if it passes: a degree drop
    (not Fuchsian), an indicial polynomial without distinct rational
    roots, or, when ``frobenius`` and two roots differ by an integer, a
    logarithm in the local basis."""
    where = {"point": _point_json(data.point), "point_label": data.point.label()}
    if data.degree < op.order:
        return CertificateStep(STEP_NOT_FUCHSIAN, dict(
            where, indicial_degree=data.degree, order=op.order,
            indicial=_indicial_display(data)))
    if len(data.rational_roots) < data.degree:
        return CertificateStep(STEP_NONSPLITTING, dict(
            where, indicial=_indicial_display(data),
            distinct_rational_roots=[[rat_to_str(r), m] for r, m in data.rational_roots],
            degree=data.degree))
    # the roots are simple and distinct: two differ by an integer exactly
    # when their class mod Z spans more than 0, and the largest difference
    # is the largest span
    span = max((int(cls[-1][0] - cls[0][0]) for cls in _exponent_classes(data.rational_roots)),
               default=0)
    if frobenius and span:
        _, has_logs, obstructions = _frobenius(data, span, "flag")
        if has_logs:
            exponent, resonance = obstructions[0]
            return CertificateStep(STEP_LOGARITHM, dict(
                where, exponent=rat_to_str(exponent), resonance=resonance,
                order_checked=span))
    return None


def _scan_points(
    op: DiffOp,
    steps: List[CertificateStep],
    frobenius_at_origin_only: bool,
) -> Optional[CertificateStep]:
    """Run the local checks; returns the deciding step or None if all pass."""
    passed = []
    for point in singularities(op):
        frobenius = not frobenius_at_origin_only or point == SingularPoint.rational(QQ(0))
        for data in indicial_branches(op, point):
            step = _branch_step(op, data, frobenius)
            if step is not None:
                return step
            passed.append(data.point.label())
    steps.append(CertificateStep(STEP_ALL_PASSED, {"points": passed}))
    return None


def _verdict(
    op: DiffOp,
    init: TruncSeries,
    opts: TranscendOptions,
    frobenius_at_origin_only: bool,
    clean_verdict: str,
    clean_confidence: str,
) -> VerdictReport:
    """Minimize, then scan the minimal operator's singular points: a
    deciding step certifies T, a clean pass gives the clean verdict."""
    if op.is_zero() or op.order == 0:
        raise InputError("operator must have positive order")
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()
    if opts.skip_minimization:
        ok, reason = validate_init(op, init)
        if not ok:
            raise InputError(_NOT_PINNED % reason)
        res = MinimizationResult(op, INPUT_RETURNED, [], NOT_SEARCHED)
    else:
        try:  # the minimizer's unroll is the one check of init
            res = _minimize(op, init, opts.minimize)
        except (InsufficientInitialConditions, InconsistentInitialConditions) as e:
            raise InputError(_NOT_PINNED % e) from None
    timings["minimization"] = time.perf_counter() - t0
    mop = res.operator
    steps = [CertificateStep(STEP_MINIMAL, {
        "order": mop.order,
        "status": res.status,
        "operator": op_to_json(mop),
        "search_log": [list(t) for t in res.search_log],
        "minimality": res.minimality,
    })]
    t0 = time.perf_counter()
    deciding = _scan_points(mop, steps, frobenius_at_origin_only)
    timings["local_analysis"] = time.perf_counter() - t0
    if deciding is not None:
        steps.append(deciding)
        return VerdictReport(VERDICT_T, CONF_CERTIFIED, steps, timings, mop)
    return VerdictReport(clean_verdict, clean_confidence, steps, timings, mop)


def transcendence_test(
    op: DiffOp,
    init: TruncSeries,
    opts: Optional[TranscendOptions] = None,
) -> VerdictReport:
    """Transcendence test: T is proved (modulo heuristic minimality),
    FAIL is no conclusion."""
    return _verdict(op, init, opts or TranscendOptions(), False, VERDICT_FAIL, CONF_HEURISTIC)


def globally_bounded_test(
    op: DiffOp,
    init: TruncSeries,
    opts: Optional[TranscendOptions] = None,
) -> VerdictReport:
    """Variant for globally bounded series (caller's assertion): the
    logarithm check runs only at the origin and a clean pass means
    algebraic, conditional on the semisimple-monodromy conjecture."""
    return _verdict(op, init, opts or TranscendOptions(), True, VERDICT_A, CONF_CONJECTURAL)


def diagonal_grade_bound(mop: DiffOp) -> int:
    """Lower bound on the number of variables needed to realize the
    solution as a diagonal: multiplicity s+1 of the zero exponent at the
    origin gives the bound s+2; 0 when the origin carries no information."""
    if mop.is_zero():
        raise InputError("zero operator")
    for data in indicial_branches(mop, SingularPoint.rational(QQ(0))):
        mult = data.root_multiplicity(QQ(0))
        if mult >= 1:
            return mult + 1
    return 0


# ---------------------------------------------------------------------------
# Certificate replay
# ---------------------------------------------------------------------------


def _certificate_steps(report_json) -> List[Dict]:
    """The report's certificate, after checking the shape ``to_json``
    writes: an object whose certificate is a list of objects with string
    kinds.  A minimal-operator step first in it has its operator as lists
    (of strings, which the replay parses), its order as an integer, its
    status and minimality as strings and its search log as a list.
    Raises InputError on anything else."""
    if not isinstance(report_json, dict):
        raise InputError("report is not a JSON object")
    steps = report_json.get("certificate", [])
    if not isinstance(steps, list) or not all(
            isinstance(s, dict) and isinstance(s.get("kind"), str) for s in steps):
        raise InputError("report certificate is not a list of steps")
    if steps and steps[0].get("kind") == STEP_MINIMAL:
        first = steps[0]
        fields = {"operator": list, "order": int, "status": str,
                  "minimality": str, "search_log": list}
        for key, kind in fields.items():
            if not isinstance(first.get(key), kind) or isinstance(first[key], bool):
                raise InputError("minimal-operator step has no valid %r" % key)
        if not all(isinstance(c, list) for c in first["operator"]):
            raise InputError("minimal-operator step has no valid 'operator'")
    return steps


def verify_report(
    op: DiffOp,
    init: TruncSeries,
    report_json: Dict,
) -> Tuple[bool, str]:
    """Replay a report's certificate; (ok, reason).

    Each deciding step is recomputed on the reported minimal operator by
    the scan's own check, ``_branch_step``, at every branch of the
    reported point, and must equal one branch's step field for field.
    The minimal-operator step must state its operator's order and a
    (status, minimality) pair the minimizer writes: the input operator
    itself, or a certified annihilator of lower order, which is
    re-certified against the input operator by the annihilation
    certificate.  Its search log is not re-checked.  The top-level
    ``minimal_operator`` and ``certificate_display``, where present, must
    be the step's operator and the steps' displays.  A pass step is
    replayed by rescanning every singular point of the reported operator,
    with the logarithm check at the origin only for an A claim: the rescan
    must find no deciding step and write the same pass step.  The stated
    verdict must follow from the last step:
    T (certified) from a replayed local obstruction, FAIL or A from a
    pass over every point.  A report not shaped as
    ``VerdictReport.to_json`` writes it raises InputError.
    """
    from .rationals import rat_from_str

    steps = _certificate_steps(report_json)
    if not steps or steps[0].get("kind") != STEP_MINIMAL:
        return False, "missing minimal-operator step"
    first = steps[0]
    mop = DiffOp([[rat_from_str(c) for c in p] for p in first["operator"]])
    if mop.is_zero():
        return False, "empty minimal operator"
    if first["order"] != mop.order:
        return False, "minimal-operator order does not match its operator"
    if "minimal_operator" in report_json and report_json["minimal_operator"] != op_to_json(mop):
        return False, "minimal operator does not replay"
    status = (first["status"], first["minimality"])
    if status not in _MINIMAL_KINDS:
        return False, "minimal-operator status %s (%s) is not one the minimizer writes" % status
    if status[0] == INPUT_RETURNED and mop != op:
        return False, "minimal operator reported as the input is not the input"
    if status[0] == CERTIFIED_ANNIHILATOR:
        if mop.order >= op.order:
            return False, "certified annihilator is not of lower order"
        # the certificate is sound only for a solution of op
        ok, reason = validate_init(op, init)
        if not ok:
            raise InputError(_NOT_PINNED % reason)
        if not certify_annihilates(op, mop, init):
            return False, "reported operator does not annihilate the solution"
    for step in steps[1:]:
        kind = step.get("kind")
        if kind == STEP_ALL_PASSED:
            # rescan with the Frobenius checks the claimed verdict's test ran
            rescan: List[CertificateStep] = []
            origin_only = report_json.get("verdict") == VERDICT_A
            if _scan_points(mop, rescan, origin_only) is not None or rescan[-1].to_json() != step:
                return False, "pass step does not replay"
            continue
        if kind not in _DECIDING_NAMES:
            return False, "unknown step kind %r" % kind
        try:
            branches = indicial_branches(mop, _point_from_json(step["point"]))
        except (KeyError, TypeError, InputError):
            branches = []
        replayed = (_branch_step(mop, b, True) for b in branches)
        if not any(s is not None and s.to_json() == step for s in replayed):
            return False, "%s step does not replay" % _DECIDING_NAMES[kind]
    if "certificate_display" in report_json and report_json["certificate_display"] != [
            CertificateStep(t["kind"], t).display() for t in steps]:
        return False, "certificate display does not replay"
    claim = (report_json.get("verdict"), report_json.get("confidence"))
    last = steps[-1].get("kind")
    if claim == (VERDICT_T, CONF_CERTIFIED):
        follows = last in (STEP_NOT_FUCHSIAN, STEP_NONSPLITTING, STEP_LOGARITHM)
    elif claim in ((VERDICT_FAIL, CONF_HEURISTIC), (VERDICT_A, CONF_CONJECTURAL)):
        follows = last == STEP_ALL_PASSED
    else:
        follows = False
    if not follows:
        return False, "verdict %s (%s) does not follow from the replayed steps" % claim
    return True, "certificate replays"
