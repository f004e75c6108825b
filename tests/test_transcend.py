import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfinite import (
    DiffOp,
    Poly,
    TruncSeries,
    diagonal_grade_bound,
    gen_binomial_sum,
    globally_bounded_test,
    guess_annihilator,
    op_mul,
    transcendence_test,
    verify_report,
)
from dfinite.errors import InputError
from dfinite.fileio import op_to_json
from dfinite.minimize import MinimizeOptions
from dfinite.rationals import QQ
from dfinite.transcend import (
    CONF_CERTIFIED,
    CONF_CONJECTURAL,
    CONF_HEURISTIC,
    STEP_ALL_PASSED,
    STEP_LOGARITHM,
    STEP_MINIMAL,
    STEP_NONSPLITTING,
    STEP_NOT_FUCHSIAN,
    TranscendOptions,
    VERDICT_A,
    VERDICT_FAIL,
    VERDICT_T,
)

FAST = TranscendOptions(minimize=MinimizeOptions(max_degree=8, max_precision=160))


def test_apery_transcendental(apery_op, apery_init):
    rep = transcendence_test(apery_op, apery_init)
    assert rep.verdict == VERDICT_T
    assert rep.confidence == CONF_CERTIFIED
    kinds = [s.kind for s in rep.certificate]
    assert STEP_NONSPLITTING in kinds
    step = rep.certificate[-1]
    assert step.payload["point"] == {"kind": "rational", "value": "0"}
    assert step.payload["indicial"] == "x^3"


def test_log_series_transcendental(log_op):
    rep = transcendence_test(log_op, TruncSeries([0, 1]), FAST)
    assert rep.verdict == VERDICT_T
    step = rep.certificate[-1]
    assert step.kind == STEP_NONSPLITTING
    assert step.payload["point"] == {"kind": "rational", "value": "1"}


def test_sqrt_fails_2a_algebraic_2b(sqrt_op):
    rep = transcendence_test(sqrt_op, TruncSeries([1, -1]), FAST)
    assert rep.verdict == VERDICT_FAIL
    rep2 = globally_bounded_test(sqrt_op, TruncSeries([1, -1]), FAST)
    assert rep2.verdict == VERDICT_A
    assert rep2.confidence == CONF_CONJECTURAL


def test_logarithm_detected_certificate():
    # z D^2 + 2 D - 1 annihilates sum z^n / (n! (n+1)!); exponents {-1, 0}
    # at the origin are distinct with integer difference and the resonance
    # is obstructed, so the second local solution carries a logarithm
    op = DiffOp([Poly([-1]), Poly([2]), Poly([0, 1])])
    rep = transcendence_test(op, TruncSeries([1, QQ(1, 2)]), FAST)
    assert rep.verdict == VERDICT_T
    step = rep.certificate[-1]
    assert step.kind == STEP_LOGARITHM
    assert step.payload["exponent"] == "-1"


def test_trident_pipeline():
    # walk counts -> guessed annihilator -> minimal -> transcendental;
    # the guessed operator has order 5 with degree 15
    from dfinite import TRIDENT_STEPS, gen_walk

    w = gen_walk(TRIDENT_STEPS, 170)
    op = guess_annihilator(w, 6)
    assert op is not None and op.order == 5 and op.degree() <= 15
    opts = TranscendOptions(
        minimize=MinimizeOptions(max_degree=op.degree() + 10, max_precision=260))
    rep = transcendence_test(op, w.prefix(op.order + 8), opts)
    assert rep.verdict == VERDICT_T
    assert rep.certificate[0].payload["status"] == "input-returned"
    assert rep.certificate[-1].payload["point"] == {"kind": "rational", "value": "0"}


def test_cluster_log_certificate(cluster_log_op):
    # series solution u + u^2 log u has log(z^2-2) branch cuts: it is not
    # in Q[[z]] -- instead pin the pure-series solution u^2 = (z^2-2)^2?
    # that one is polynomial (algebraic), so the test must NOT return T
    # from it; the logarithm lives at the cluster and is detected when the
    # minimal operator for the full space is scanned directly.
    from dfinite.local import SingularPoint, formal_solutions

    basis = formal_solutions(cluster_log_op, SingularPoint.algebraic(Poly([-2, 0, 1])), 2, mode="flag")
    assert basis.has_logarithms


def test_irregular_not_fuchsian():
    # exp(z): irregular at infinity, caught by the degree drop
    op = DiffOp([Poly([-1]), Poly([1])])
    rep = transcendence_test(op, TruncSeries([1]), FAST)
    assert rep.verdict == VERDICT_T
    step = rep.certificate[-1]
    assert step.kind == STEP_NOT_FUCHSIAN
    assert step.payload["point"] == {"kind": "infinity"}


def test_algebraic_fixtures_never_transcendental(
    sqrt_op, delannoy_op, cbrt_op
):
    central = DiffOp([Poly([-2]), Poly([1, -4])])  # (1-4z) D - 2
    for op, init in [
        (sqrt_op, TruncSeries([1, -1])),
        (delannoy_op, TruncSeries([1])),
        (cbrt_op, TruncSeries([1])),
        (central, TruncSeries([1])),
    ]:
        rep = transcendence_test(op, init, FAST)
        assert rep.verdict == VERDICT_FAIL
        rep2 = globally_bounded_test(op, init, FAST)
        assert rep2.verdict == VERDICT_A


def test_asymptotic_decision_agrees_with_test():
    # total weight decides the family's nature; the operator-based test
    # must agree: T for weight > 2, FAIL/A at weight 2
    from dfinite import apery_asymptotic_decision, gen_binomial_sum

    for powers in [(1, 0, 1), (1, 1, 1), (2, 0, 1)]:
        f = gen_binomial_sum(list(powers), 220)
        op = guess_annihilator(f, 6)
        assert op is not None, powers
        init = f.prefix(op.order + max(4, op.order))
        opts = TranscendOptions(minimize=MinimizeOptions(
            max_degree=op.degree() + 8, max_precision=220))
        rep = transcendence_test(op, init, opts)
        decision = apery_asymptotic_decision(list(powers))
        if decision == "transcendental":
            assert rep.verdict == VERDICT_T, powers
        else:
            assert rep.verdict == VERDICT_FAIL, powers
            rep_b = globally_bounded_test(op, init, opts)
            assert rep_b.verdict == VERDICT_A, powers


def test_f11_fail_and_algebraic(delannoy_op):
    f = gen_binomial_sum([1, 1], 60)
    op = guess_annihilator(f, 3)
    assert op == delannoy_op
    rep = transcendence_test(op, f.prefix(4), FAST)
    assert rep.verdict == VERDICT_FAIL
    rep2 = globally_bounded_test(op, f.prefix(4), FAST)
    assert rep2.verdict == VERDICT_A


def test_2a_2b_agree_on_transcendental(apery_op, apery_init):
    rep_a = transcendence_test(apery_op, apery_init)
    rep_b = globally_bounded_test(apery_op, apery_init)
    assert rep_a.verdict == rep_b.verdict == VERDICT_T
    assert [s.kind for s in rep_a.certificate] == [s.kind for s in rep_b.certificate]


def test_determinism(apery_op, apery_init):
    rep1 = transcendence_test(apery_op, apery_init)
    rep2 = transcendence_test(apery_op, apery_init)
    j1, j2 = rep1.to_json(), rep2.to_json()
    j1.pop("timings"), j2.pop("timings")
    assert j1 == j2


def test_grade_bound(apery_op):
    assert diagonal_grade_bound(apery_op) == 4
    # lam(lam-1): simple zero root, vacuous bound 2
    op = DiffOp([Poly(), Poly(), Poly([0, 0, 1])])
    assert diagonal_grade_bound(op) == 2
    # no zero root: no information
    op2 = DiffOp([Poly([-1]), Poly([0, 1])])
    assert diagonal_grade_bound(op2) == 0


def test_verify_report_roundtrip(apery_op, apery_init, sqrt_op):
    rep = transcendence_test(apery_op, apery_init)
    ok, why = verify_report(apery_op, apery_init, rep.to_json())
    assert ok, why
    rep2 = transcendence_test(sqrt_op, TruncSeries([1, -1]), FAST)
    ok, why = verify_report(sqrt_op, TruncSeries([1, -1]), rep2.to_json())
    assert ok, why


def test_verify_rejects_verdict_not_following_from_steps(sqrt_op):
    init = TruncSeries([1, -1])
    rep = transcendence_test(sqrt_op, init, FAST).to_json()
    assert rep["verdict"] == VERDICT_FAIL
    forged = dict(rep, verdict=VERDICT_T, confidence=CONF_CERTIFIED)
    ok, why = verify_report(sqrt_op, init, forged)
    assert not ok and "does not follow" in why
    rep_gb = globally_bounded_test(sqrt_op, init, FAST).to_json()
    assert verify_report(sqrt_op, init, dict(rep_gb, verdict=VERDICT_FAIL))[0] is False


def test_verify_refuses_factor_witness(sqrt_op):
    init = TruncSeries([1, -1])
    rep = transcendence_test(sqrt_op, init, FAST).to_json()
    rep["certificate"].insert(1, {"kind": "factor-witness", "stage": 0})
    ok, why = verify_report(sqrt_op, init, rep)
    assert not ok and "factor" in why


def test_verify_rejects_tampered_report(apery_op, apery_init):
    rep = transcendence_test(apery_op, apery_init).to_json()
    rep["certificate"][1]["point"] = {"kind": "rational", "value": "2"}
    ok, why = verify_report(apery_op, apery_init, rep)
    assert not ok


def _sqrt_report(sqrt_op, **opts):
    init = TruncSeries([1, -1])
    return init, transcendence_test(sqrt_op, init, TranscendOptions(**opts) if opts else FAST).to_json()


@pytest.mark.parametrize("field, value, why", [
    ("order", 7, "order does not match"),
    ("status", "made-up", "status"),
    ("minimality", "proved", "status"),
    ("status", "certified-annihilator", "not of lower order"),
])
def test_verify_checks_the_minimal_operator_step(sqrt_op, field, value, why):
    init, rep = _sqrt_report(sqrt_op)
    step = rep["certificate"][0]
    assert (step["status"], step["minimality"]) == ("input-returned", "heuristic-minimal")
    assert verify_report(sqrt_op, init, rep) == (True, "certificate replays")
    step[field] = value
    ok, reason = verify_report(sqrt_op, init, rep)
    assert not ok and why in reason


def test_verify_input_returned_must_be_the_input(sqrt_op, apery_op, apery_init):
    init, rep = _sqrt_report(sqrt_op, skip_minimization=True)
    assert rep["certificate"][0]["minimality"] == "not-searched"
    assert verify_report(sqrt_op, init, rep)[0]
    # the same report against another input operator of higher order
    big = op_mul(DiffOp([Poly(), Poly([1])]), sqrt_op)
    assert verify_report(big, init, rep) == (
        False, "minimal operator reported as the input is not the input")
    rep = transcendence_test(apery_op, apery_init).to_json()
    assert rep["certificate"][0]["status"] == "input-returned"


@pytest.mark.parametrize("report", [
    [],
    "xx",
    {"certificate": "xx"},
    {"certificate": [1, 2]},
    {"certificate": [{"kind": "minimal-operator", "order": 1}]},
    {"certificate": [{"kind": "minimal-operator", "operator": [["1"]], "order": True,
                      "status": "input-returned", "minimality": "not-searched",
                      "search_log": []}]},
    {"certificate": [{"kind": "minimal-operator", "operator": ["1"], "order": 0,
                      "status": "input-returned", "minimality": "not-searched",
                      "search_log": []}]},
])
def test_verify_malformed_report_is_an_input_error(sqrt_op, report):
    with pytest.raises(InputError):
        verify_report(sqrt_op, TruncSeries([1, -1]), report)


@pytest.fixture(scope="module")
def valid_reports(apery_op, apery_init, cluster_log_op, sqrt_op):
    """(op, init, report) for an Apery T (nonsplitting at 0), a T from a
    logarithm at the branch z^2 = 2 of a split cluster, a sqrt FAIL and a
    sqrt globally-bounded A."""
    u2 = TruncSeries([4, 0, -4, 0, 1])  # (z^2 - 2)^2, scanned without minimizing
    sqrt_init = TruncSeries([1, -1])
    out = [
        (apery_op, apery_init, transcendence_test(apery_op, apery_init)),
        (cluster_log_op, u2, transcendence_test(
            cluster_log_op, u2, TranscendOptions(skip_minimization=True))),
        (sqrt_op, sqrt_init, transcendence_test(sqrt_op, sqrt_init, FAST)),
        (sqrt_op, sqrt_init, globally_bounded_test(sqrt_op, sqrt_init, FAST)),
    ]
    kinds = [rep.certificate[-1].kind for _, _, rep in out]
    assert kinds == [STEP_NONSPLITTING, STEP_LOGARITHM, STEP_ALL_PASSED, STEP_ALL_PASSED]
    return [(op, init, rep.to_json()) for op, init, rep in out]


@pytest.mark.parametrize("field, value", [
    ("point_label", "root of z^2 - 34*z + 1"),
    ("indicial", "x^2 - 1"),
    ("distinct_rational_roots", [["1", 1], ["-1", 1]]),
    ("degree", 2),
    ("replayed", True),  # a field the check does not produce
])
def test_verify_rejects_tampered_deciding_step(valid_reports, field, value):
    # every field of a deciding step is recomputed, not just its kind and point
    op, init, rep = copy.deepcopy(valid_reports[0])
    assert verify_report(op, init, rep) == (True, "certificate replays")
    rep["certificate"][-1][field] = value
    assert verify_report(op, init, rep) == (False, "nonsplitting step does not replay")


def test_verify_rejects_logarithm_step_at_other_branch(valid_reports):
    op, init, rep = copy.deepcopy(valid_reports[1])
    step = rep["certificate"][-1]
    assert step["point"] == {"kind": "algebraic", "modulus": ["-2", "0", "1"]}
    step["point"]["modulus"] = ["-3", "0", "1"]  # the cluster's other branch
    assert verify_report(op, init, rep) == (False, "logarithm step does not replay")


@pytest.mark.parametrize("point", ["x", {"modulus": ["-2", "0", "1"]}, {"kind": "rational"}])
def test_verify_rejects_malformed_deciding_point(valid_reports, point):
    # a point that does not parse has no branch to replay: rejected, not raised
    op, init, rep = copy.deepcopy(valid_reports[0])
    rep["certificate"][-1]["point"] = point
    assert verify_report(op, init, rep) == (False, "nonsplitting step does not replay")


_EXP = (DiffOp([Poly([-1]), Poly([1])]), TruncSeries([1]))
_CLUSTER = (DiffOp([Poly([1]), Poly(), Poly([4, 0, -4, 0, 1])]), TruncSeries([1, 0]))  # (z^2-2)^2 D^2 + 1


@pytest.mark.parametrize("problem, step, tampered", [
    (_EXP, {"kind": STEP_NOT_FUCHSIAN, "point": {"kind": "infinity"}, "point_label": "infinity",
            "indicial_degree": 0, "order": 1, "indicial": "1"},
     {"kind": "rational", "value": "0"}),
    (_CLUSTER, {"kind": STEP_NONSPLITTING, "point": {"kind": "algebraic", "modulus": ["-2", "0", "1"]},
                "point_label": "root of z^2 - 2", "indicial": "(1)*x^0 + (-8)*x^1 + (8)*x^2",
                "distinct_rational_roots": [], "degree": 2},
     {"kind": "algebraic", "modulus": ["-3", "0", "1"]}),
])
def test_verify_replays_deciding_steps_at_infinity_and_at_a_cluster(problem, step, tampered):
    op, init = problem
    rep = transcendence_test(op, init).to_json()
    assert (rep["verdict"], rep["certificate"][-1]) == (VERDICT_T, step)
    assert verify_report(op, init, rep) == (True, "certificate replays")
    rep["certificate"][-1]["point"] = tampered
    name = "not-fuchsian" if step["kind"] == STEP_NOT_FUCHSIAN else "nonsplitting"
    assert verify_report(op, init, rep) == (False, "%s step does not replay" % name)


def _claiming_annihilator(rep, operator):
    """rep with its first step claiming ``operator`` as a certified
    annihilator of lower order."""
    rep = copy.deepcopy(rep)
    rep.pop("minimal_operator", None)
    rep["certificate"][0].update(operator=operator, order=len(operator) - 1,
                                 status="certified-annihilator")
    return rep


def test_verify_replays_the_certified_annihilator(valid_reports):
    op, init, rep = valid_reports[0]  # Apery, order 3
    forged = _claiming_annihilator(rep, [["-1"], ["1"]])
    assert verify_report(op, init, forged) == (
        False, "reported operator does not annihilate the solution")
    with pytest.raises(InputError, match="do not pin down a solution"):
        verify_report(op, TruncSeries([1, 5]), forged)
    empty = _claiming_annihilator(rep, [["0"], ["0"]])
    assert verify_report(op, init, empty) == (False, "empty minimal operator")


def _forged_pass(rep, points, verdict, confidence):
    """rep with its deciding step replaced by a pass step over points."""
    rep = copy.deepcopy(rep)
    rep["certificate"][-1] = {"kind": STEP_ALL_PASSED, "points": points}
    return dict(rep, verdict=verdict, confidence=confidence)


@pytest.mark.parametrize("which, points", [
    # Apery's indicial polynomial at 0 does not split, whichever checks run
    (0, ["0"]),
    # the logarithm at z^2 = 2 decides the full scan, the double exponent
    # at infinity the scan with the logarithm check at the origin only
    (1, ["0", "root of z^2 - 3", "root of z^2 - 2", "infinity"]),
])
@pytest.mark.parametrize("verdict, confidence", [
    (VERDICT_A, CONF_CONJECTURAL),
    (VERDICT_FAIL, CONF_HEURISTIC),
])
def test_verify_replays_forged_pass_step(valid_reports, which, points, verdict, confidence):
    op, init, rep = valid_reports[which]
    forged = _forged_pass(rep, points, verdict, confidence)
    assert verify_report(op, init, forged) == (False, "pass step does not replay")


def test_verify_pass_step_runs_the_claimed_logarithm_checks():
    # Wronskian operator of s^2 and s + s^2 log((1 - z)/(1 + z)), s = 1 - z^2:
    # logarithms at z = 1 and z = -1 only, every point splits, so the scan
    # with the logarithm check at the origin only passes and the full one
    # does not
    op = DiffOp([Poly([-4, 0, -8, 8, 12]), Poly([-1, -6, 6, 12, -5, -6]),
                 Poly([-1, 1, 3, -2, -3, 1, 1])])
    init = TruncSeries([1, 0, -2, 0, 1])  # s^2
    opts = TranscendOptions(skip_minimization=True)
    rep_t = transcendence_test(op, init, opts).to_json()
    assert rep_t["certificate"][-1]["kind"] == STEP_LOGARITHM
    rep_a = globally_bounded_test(op, init, opts).to_json()
    assert rep_a["verdict"] == VERDICT_A
    assert verify_report(op, init, rep_a) == (True, "certificate replays")
    forged = dict(rep_a, verdict=VERDICT_FAIL, confidence=CONF_HEURISTIC)
    assert verify_report(op, init, forged) == (False, "pass step does not replay")


def test_verify_rejects_tampered_pass_step(valid_reports):
    for op, init, rep in valid_reports[2:]:
        assert verify_report(op, init, rep) == (True, "certificate replays")
        step = rep["certificate"][-1]
        assert step["kind"] == STEP_ALL_PASSED and len(step["points"]) > 1
        forged = _forged_pass(rep, step["points"][:-1], rep["verdict"], rep["confidence"])
        assert verify_report(op, init, forged) == (False, "pass step does not replay")


def test_verify_checks_minimal_operator_and_display(valid_reports):
    other = op_to_json(DiffOp([Poly([1]), Poly([0, 1])]))
    for op, init, rep in valid_reports:
        assert verify_report(op, init, rep) == (True, "certificate replays")
        assert rep["minimal_operator"] == rep["certificate"][0]["operator"] != other
        assert verify_report(op, init, dict(rep, minimal_operator=other)) == (
            False, "minimal operator does not replay")
        lines = rep["certificate_display"]
        for forged in (lines[:-1], lines[1:], [lines[0] + " "] + lines[1:],
                       lines[:-1] + [lines[-1].upper()], lines + lines[-1:]):
            assert forged != lines
            assert verify_report(op, init, dict(rep, certificate_display=forged)) == (
                False, "certificate display does not replay")


_KINDS = [STEP_MINIMAL, STEP_NOT_FUCHSIAN, STEP_NONSPLITTING, STEP_LOGARITHM,
          STEP_ALL_PASSED, "factor-witness", "bogus"]
_WORDS = ["", "0", "1", "-1", "2", "1/2", "x^3", "x^2 - 1", "infinity", "rational", "algebraic"]


@st.composite
def _mutated(draw, value):
    """A JSON value of the same shape as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + draw(st.sampled_from([-2, -1, 1, 2]))
    if isinstance(value, str):
        words = st.sampled_from(_WORDS) | st.text(max_size=3) | st.just(value + "0")
        return draw(words.filter(lambda v: v != value))
    if isinstance(value, list):
        if not value:
            return [draw(st.sampled_from(_WORDS))]
        i = draw(st.integers(0, len(value) - 1))
        how = draw(st.sampled_from(["append", "drop", "inner"]))
        if how == "append":
            return value + [copy.deepcopy(value[i])]
        if how == "drop":
            return value[:i] + value[i + 1:]
        return value[:i] + [draw(_mutated(value[i]))] + value[i + 1:]
    assert isinstance(value, dict)
    out = dict(value)
    key = draw(st.sampled_from(sorted(out) + ["extra"]))
    out[key] = draw(_mutated(out[key])) if key in out else "1"
    return out


@st.composite
def _report_mutants(draw, reports):
    op, init, original = draw(st.sampled_from(reports))
    rep = copy.deepcopy(original)
    steps = rep["certificate"]
    what = draw(st.sampled_from(["verdict", "confidence", "kind", "payload", "order",
                                 "delete", "retype", "certificate"]))
    if what == "verdict":
        rep["verdict"] = draw(st.sampled_from([VERDICT_T, VERDICT_A, VERDICT_FAIL, "X"])
                              .filter(lambda v: v != rep["verdict"]))
    elif what == "confidence":
        rep["confidence"] = draw(st.sampled_from([CONF_CERTIFIED, CONF_CONJECTURAL,
                                                  CONF_HEURISTIC, "X"])
                                 .filter(lambda v: v != rep["confidence"]))
    elif what == "kind":
        step = draw(st.sampled_from(steps))
        step["kind"] = draw(st.sampled_from(_KINDS).filter(lambda k: k != step["kind"]))
    elif what == "payload":
        step = draw(st.sampled_from(steps))
        key = draw(st.sampled_from(sorted(k for k in step if k != "kind")))
        step[key] = draw(_mutated(step[key]))
    elif what == "delete":
        where = draw(st.sampled_from([rep] + steps))
        del where[draw(st.sampled_from(sorted(where)))]
    elif what == "retype":
        step = draw(st.sampled_from(steps))
        key = draw(st.sampled_from(sorted(step)))
        step[key] = draw(st.sampled_from([None, True, 5, "x", [], ["x"], {}])
                         .filter(lambda v: type(v) is not type(step[key])))
    elif what == "certificate":
        rep["certificate"] = draw(st.sampled_from(["xx", 5, None, {}, [5], steps[0]]))
    else:
        perm = draw(st.permutations(range(len(steps))).filter(lambda p: p != sorted(p)))
        rep["certificate"] = [steps[i] for i in perm]
    return op, init, original, rep


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_verify_mutated_reports_rejected_or_same_verdict(valid_reports, data):
    op, init, original, mutant = data.draw(_report_mutants(valid_reports))
    try:
        ok, _ = verify_report(op, init, mutant)
    except InputError:  # a malformed operator coefficient
        ok = False
    verdict = (original["verdict"], original["confidence"])
    assert not ok or (mutant["verdict"], mutant["confidence"]) == verdict


def test_rejects_order_zero():
    with pytest.raises(InputError):
        transcendence_test(DiffOp([Poly([1, 1])]), TruncSeries([1]))


def test_bad_init_message_names_the_entry_point():
    # (1-2z) f' = 2f forces a_1 = 2; z D - 1 leaves a_1 free
    cases = [(DiffOp([Poly([-2]), Poly([1, -2])]), TruncSeries([1, 3]), "row"),
             (DiffOp([Poly([-1]), Poly([0, 1])]), TruncSeries([0]), "degenerate"),
             (DiffOp([Poly(), Poly(), Poly([1])]), TruncSeries([1]), "fewer")]
    skip = TranscendOptions(skip_minimization=True)
    for op, init, why in cases:
        for opts in (None, skip):
            for test in (transcendence_test, globally_bounded_test):
                with pytest.raises(InputError, match="^initial terms do not pin down a solution: .*" + why):
                    test(op, init, opts)
