import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dfinite import cli
from dfinite.cli import main
from dfinite.errors import InputError, PrecisionTooLow
from dfinite.rationals import rat_from_str

ROOT = Path(__file__).resolve().parents[1]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def apery_file(tmp_path):
    path = tmp_path / "apery.json"
    path.write_text(json.dumps({
        "variable": "z",
        "operator": [
            [-5, 1],
            [1, -112, 7],
            [0, 3, -153, 6],
            [0, 0, 1, -34, 1],
        ],
        "initial_terms": ["1", "5", "73"],
        "assertions": {"globally_bounded": True},
    }))
    return str(path)


@pytest.fixture()
def sqrt_file(tmp_path):
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({
        "variable": "z",
        "operator": [[4], [0, -4], [1, -6, 8]],
        "initial_terms": ["1", "-1"],
        "assertions": {"globally_bounded": True},
    }))
    return str(path)


def test_cli_test_apery(capsys, apery_file):
    code, out = _run(capsys, ["test", apery_file])
    assert code == 0
    assert out["verdict"] == "T"
    assert out["confidence"] == "certified-modulo-minimality"
    assert any("NonsplittingIndicial(0" in s for s in out["certificate_display"])


def test_cli_test_gb(capsys, apery_file, sqrt_file):
    code, out = _run(capsys, ["test-gb", apery_file])
    assert code == 0 and out["verdict"] == "T"
    code, out = _run(capsys, ["test-gb", sqrt_file])
    assert code == 0 and out["verdict"] == "A"
    assert out["confidence"] == "conjectural-christol-andre"


def test_cli_minimize(capsys, apery_file):
    code, out = _run(capsys, ["minimize", apery_file])
    assert code == 0
    assert out["status"] == "input-returned"
    assert out["order"] == 3


def test_cli_indicial(capsys, apery_file):
    code, out = _run(capsys, ["indicial", apery_file, "--point", "0"])
    assert code == 0
    branch = out["branches"][0]
    assert branch["degree"] == 3
    assert branch["rational_roots"] == [["0", 3]]
    code, out = _run(capsys, ["indicial", apery_file, "--point", "poly:1,-34,1"])
    assert code == 0
    assert sorted(r for r, _ in out["branches"][0]["rational_roots"]) == ["0", "1", "1/2"]


def test_cli_formal_solutions(capsys, sqrt_file):
    code, out = _run(capsys, [
        "formal-solutions", sqrt_file, "--point", "1/4", "--order", "3", "--logs"])
    assert code == 0
    assert out["has_logarithms"] is False
    assert sorted(s["exponent"] for s in out["solutions"]) == ["0", "1/2"]


def test_cli_pcurv(capsys, sqrt_file):
    code, out = _run(capsys, ["pcurv", sqrt_file, "--primes", "3,5,7"])
    assert code == 0
    for rep in out["reports"]:
        assert rep["bad_prime"] or rep["is_zero"]


def test_cli_pcurv_output_pinned(capsys, apery_file, tmp_path):
    # the full JSON, byte for byte: Apery is nonzero of rank 2 at each of
    # these primes, and an order-0 operator is zero of rank 0
    assert main(["pcurv", apery_file, "--primes", "5,7,11,13"]) == 0
    assert capsys.readouterr().out == (
        '{"reports":['
        '{"bad_prime":false,"is_zero":false,"matrix_rank":2,"prime":5,"reason":""},'
        '{"bad_prime":false,"is_zero":false,"matrix_rank":2,"prime":7,"reason":""},'
        '{"bad_prime":false,"is_zero":false,"matrix_rank":2,"prime":11,"reason":""},'
        '{"bad_prime":false,"is_zero":false,"matrix_rank":2,"prime":13,"reason":""}]}\n'
    )
    order0 = tmp_path / "order0.json"
    order0.write_text(json.dumps({"variable": "z", "operator": [[1, 2, 3]], "initial_terms": []}))
    assert main(["pcurv", str(order0), "--primes", "2,3,5"]) == 0
    assert capsys.readouterr().out == (
        '{"reports":['
        '{"bad_prime":false,"is_zero":true,"matrix_rank":0,"prime":2,"reason":""},'
        '{"bad_prime":false,"is_zero":true,"matrix_rank":0,"prime":3,"reason":""},'
        '{"bad_prime":false,"is_zero":true,"matrix_rank":0,"prime":5,"reason":""}]}\n'
    )


def test_cli_hypergeom(capsys):
    code, out = _run(capsys, ["hypergeom", "--a", "1/2,1/2", "--b", "1"])
    assert code == 0
    assert out["verdict"] == "transcendental-by-interlacing"
    code, out = _run(capsys, ["hypergeom", "--a", "1/2"])
    assert code == 0
    assert out["verdict"] == "algebraic-by-interlacing"
    code, out = _run(capsys, ["hypergeom", "--a", "1,1", "--b", "2"])
    assert code == 0
    assert out["verdict"] == "inapplicable"


@pytest.mark.parametrize("a, b", [("1/3,,2/3", "1/2"), ("1/3,2/3,", "1/2"), ("1/3,2/3", "1/2,")])
def test_cli_hypergeom_rejects_empty_entries(capsys, a, b):
    code, out = _run(capsys, ["hypergeom", "--a", a, "--b", b])
    assert code == 2
    assert out["error"] == "input"


def test_cli_hypergeom_large_denominator_stops_at_the_first_unit(capsys):
    # D is about 6e9, but unit 1 already fails to interlace
    t0 = time.perf_counter()
    code, out = _run(capsys, ["hypergeom", "--a", "1/1000000007,1/3", "--b", "1/2"])
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert out["verdict"] == "transcendental-by-interlacing"
    assert out["reason"] == "interlacing fails at unit 1 mod 6000000042"


def test_cli_hypergeom_walk_over_the_unit_bound_is_input_error(capsys, monkeypatch):
    from dfinite import hypergeom

    # 2F1(1/4, 3/4; 1/2) interlaces at both units mod 4
    argv = ["hypergeom", "--a", "1/4,3/4", "--b", "1/2"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert out["reason"] == "all 2 unit multiples interlace"
    monkeypatch.setattr(hypergeom, "MAX_UNITS", 2)
    code, out = _run(capsys, argv)
    assert code == 0
    monkeypatch.setattr(hypergeom, "MAX_UNITS", 1)
    code, out = _run(capsys, argv)
    assert code == 2
    assert out["error"] == "input"


def test_cli_hypergeom_one_upper_parameter_walks_no_units(capsys):
    # (1 - z)^(-a) is algebraic for every non-integer rational a, here
    # with 1000002 units mod D, past MAX_UNITS
    t0 = time.perf_counter()
    code, out = _run(capsys, ["hypergeom", "--a", "1/1000003"])
    assert time.perf_counter() - t0 < 1
    assert code == 0
    assert out["verdict"] == "algebraic-by-interlacing"
    assert out["reason"] == ("one upper parameter: (1 - z)^(-1/1000003) is algebraic, "
                             "a root of y^1000003 = (1 - z)^-1")
    code, out = _run(capsys, ["hypergeom", "--a", "1/11"])
    assert code == 0
    assert out["reason"] == ("one upper parameter: (1 - z)^(-1/11) is algebraic, "
                             "a root of y^11 = (1 - z)^-1")


def test_cli_guess_alg(capsys, sqrt_file):
    code, out = _run(capsys, ["guess-alg", sqrt_file])
    assert code == 0
    assert out["certified"] is True
    assert len(out["polynomial"]) == 3  # degree 2 in y


@pytest.mark.parametrize("flag", ["--max-dy", "--max-dz"])
def test_cli_guess_alg_negative_degree_is_input_error(capsys, flag):
    code, out = _run(capsys, ["guess-alg", str(ROOT / "bench" / "data" / "apery.json"), flag, "-1"])
    assert code == 2
    assert out["error"] == "input"


@pytest.mark.parametrize("command, bound", [
    *[pytest.param(c, ["--max-degree", "-1"], id=c) for c in ("minimize", "test", "grade-bound")],
    *[pytest.param(c, ["--precision", "-5"], id=c + "-precision")
      for c in ("minimize", "test", "test-gb", "grade-bound")],
])
def test_cli_negative_max_degree_is_input_error(capsys, command, bound):
    # --assume-gb lifts test-gb's own InputError (no globally bounded assertion)
    extra = ["--assume-gb"] if command == "test-gb" else []
    code, out = _run(capsys, [command, str(ROOT / "bench" / "data" / "apery.json"), *bound, *extra])
    assert code == 2
    assert out["error"] == "input"
    assert "max_" in out["message"]


def test_cli_zero_precision_is_an_exhausted_budget(capsys):
    # a budget of 0 or more that fits no box is a computed result
    code, out = _run(capsys, ["test", str(ROOT / "bench" / "data" / "apery.json"), "--precision", "0"])
    assert code == 0
    assert out["certificate"][0]["search_log"] == [
        [1, -1, "precision budget exhausted"], [2, -1, "precision budget exhausted"]]


def test_cli_formal_solutions_negative_order_is_input_error(capsys):
    code, out = _run(capsys, [
        "formal-solutions", str(ROOT / "bench" / "data" / "apery.json"),
        "--point", "0", "--order", "-1", "--logs"])
    assert code == 2
    assert out["error"] == "input"


def test_cli_grade_bound(capsys, apery_file):
    code, out = _run(capsys, ["grade-bound", apery_file])
    assert code == 0
    assert out["grade_bound"] == 4


def test_cli_gen_walk(capsys):
    code, out = _run(capsys, ["gen", "walk", "--steps", "trident", "-n", "7"])
    assert code == 0
    assert out["coefficients"] == ["1", "2", "7", "23", "84", "301", "1127"]


def test_cli_gen_apery(capsys):
    code, out = _run(capsys, ["gen", "apery", "--powers", "2,2", "-n", "4"])
    assert code == 0
    assert out["coefficients"] == ["1", "5", "73", "1445"]


@pytest.mark.parametrize("argv", [
    ["apery", "--powers", "1,x", "-n", "5"],
    ["apery", "--powers", ",", "-n", "3"],
    ["diagonal", "--powers", "1", "-n", "3"],
    ["diagonal", "--powers", "1,1,1", "-n", "3"],
    ["walk", "--steps", "(1,x)", "-n", "3"],
    ["walk", "--steps", "1;2", "-n", "3"],
    ["diagonal", "--powers", "0,1", "-n", "4"],
    ["series", "-n", "5"],  # no --file
])
def test_cli_gen_malformed_powers_or_steps(capsys, argv):
    code, out = _run(capsys, ["gen"] + argv)
    assert code == 2
    assert out["error"] == "input"


def test_cli_gen_diagonal_powers(capsys):
    code, out = _run(capsys, ["gen", "diagonal", "--powers", "1,1", "-n", "4"])
    assert code == 0
    assert out["coefficients"] == ["1", "3", "13", "63"]


def test_cli_gen_series(capsys, apery_file):
    code, out = _run(capsys, ["gen", "series", "--file", apery_file, "-n", "5"])
    assert code == 0
    assert out["coefficients"][-1] == "33001"


def test_cli_gen_diagonal_spec(capsys, tmp_path):
    spec = tmp_path / "diag.json"
    spec.write_text(json.dumps({
        "vars": ["x", "y"],
        "num": [[1, [0, 0]]],
        "den": [[1, [0, 0]], [-1, [1, 0]], [-1, [0, 1]]],
    }))
    code, out = _run(capsys, ["gen", "diagonal", "--spec", str(spec), "-n", "5"])
    assert code == 0
    assert out["coefficients"] == ["1", "2", "6", "20", "70"]


def test_cli_gen_diagonal_spec_repeated_monomial(capsys, tmp_path):
    # -x listed twice is -2x: the diagonal of 1/(1-2x-y)
    spec = tmp_path / "diag.json"
    spec.write_text(json.dumps({
        "vars": ["x", "y"],
        "num": [[1, [0, 0]]],
        "den": [[1, [0, 0]], [-1, [1, 0]], [-1, [1, 0]], [-1, [0, 1]]],
    }))
    code, out = _run(capsys, ["gen", "diagonal", "--spec", str(spec), "-n", "4"])
    assert code == 0
    assert out["coefficients"] == ["1", "4", "24", "160"]


def test_cli_gen_diagonal_spec_rational_coefficient(capsys, tmp_path):
    # num 1/2 halves the central binomials; a float is not an exact coefficient
    spec = tmp_path / "diag.json"
    den = [[1, [0, 0]], [-1, [1, 0]], [-1, [0, 1]]]
    spec.write_text(json.dumps({"vars": ["x", "y"], "num": [["1/2", [0, 0]]], "den": den}))
    code, out = _run(capsys, ["gen", "diagonal", "--spec", str(spec), "-n", "4"])
    assert code == 0
    assert out["coefficients"] == ["1/2", "1", "3", "10"]
    spec.write_text(json.dumps({"vars": ["x", "y"], "num": [[0.5, [0, 0]]], "den": den}))
    code, out = _run(capsys, ["gen", "diagonal", "--spec", str(spec), "-n", "4"])
    assert code == 2
    assert out["error"] == "input"


def test_import_leaves_sympy_unloaded():
    # sympy is imported lazily, inside the polys functions that need it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, dfinite; sys.exit('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "import dfinite loaded sympy"


def test_rational_points_leave_sympy_unloaded():
    # 2F1(1/2, 1/2; 1) is singular at 0, 1 and infinity only: no cluster
    # is scanned, so no resultant is taken and sympy is never needed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "\n".join([
        "import sys",
        "from dfinite import DiffOp, TruncSeries, transcendence_test, unroll",
        "from dfinite.rationals import QQ",
        "op = DiffOp([[-1], [4, -8], [0, 4, -4]])",
        "init = TruncSeries([QQ(1), QQ(1, 4)])",
        "assert op.leading.rational_roots() == [(QQ(0), 1), (QQ(1), 1)]",
        "assert unroll(op, init, 4).coeffs[3] == QQ(25, 256)",
        "assert transcendence_test(op, init).verdict == 'T'",
        "sys.exit('sympy' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "the scan loaded sympy"


def test_cli_verify_roundtrip(capsys, apery_file, tmp_path):
    code, _ = _run(capsys, ["test", apery_file])
    assert code == 0
    # rerun to capture the report text
    main(["test", apery_file])
    report_text = capsys.readouterr().out
    report_path = tmp_path / "report.json"
    report_path.write_text(report_text)
    code, out = _run(capsys, ["verify", apery_file, str(report_path)])
    assert code == 0
    assert out["verified"] is True
    assert out["verdict"] == "T"


def test_cli_verify_rejects_tampered(capsys, apery_file, sqrt_file, tmp_path):
    main(["test", apery_file])
    report = json.loads(capsys.readouterr().out)
    report["certificate"][1]["point"] = {"kind": "rational", "value": "3"}
    report_path = tmp_path / "bad.json"
    report_path.write_text(json.dumps(report))
    code, out = _run(capsys, ["verify", apery_file, str(report_path)])
    assert code == 2
    assert out["verified"] is False


def test_cli_verify_certified_annihilator_with_unpinned_init(capsys, apery_file, tmp_path):
    main(["test", apery_file])
    report = json.loads(capsys.readouterr().out)
    del report["minimal_operator"]
    report["certificate"][0].update(operator=[["-1"], ["1"]], order=1, status="certified-annihilator")
    report_path = tmp_path / "forged.json"
    report_path.write_text(json.dumps(report))
    code, out = _run(capsys, ["verify", apery_file, str(report_path)])
    assert (code, out["verified"]) == (2, False)
    # two initial terms pin no solution of the order-3 Apery operator
    short = tmp_path / "short.json"
    short.write_text(json.dumps(dict(json.loads(Path(apery_file).read_text()), initial_terms=["1", "5"])))
    code, out = _run(capsys, ["verify", str(short), str(report_path)])
    assert code == 2
    assert out["error"] == "input" and "do not pin down a solution" in out["message"]


def test_cli_exit_codes_at_infinity_and_without_assertions(capsys, tmp_path):
    exp_file = tmp_path / "exp.json"
    exp_file.write_text(json.dumps({"operator": [[-1], [1]], "initial_terms": ["1"]}))
    # exp(z) is irregular at infinity: a DFiniteError, not an InputError
    code, out = _run(capsys, ["formal-solutions", str(exp_file), "--point", "inf"])
    assert (code, out["error"]) == (2, "IrregularPoint")
    code, out = _run(capsys, ["formal-solutions", str(exp_file), "--point", "inf", "--allow-irregular"])
    assert (code, out["solutions"]) == (0, [])
    code, out = _run(capsys, ["indicial", str(exp_file), "--point", "inf"])
    assert code == 0
    assert out["branches"] == [{"point": "infinity", "degree": 0, "rational_roots": [],
                                "splits_distinct_rational": True, "indicial": ["1"]}]
    code, out = _run(capsys, ["test-gb", str(exp_file)])
    assert code == 2
    assert out["error"] == "input" and "globally_bounded" in out["message"]


def test_cli_has_no_max_order_option(apery_file):
    # the flag used to be accepted and ignored, so it capped nothing
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["test", apery_file, "--max-order", "3"])


@pytest.mark.parametrize("argv", [
    ["test"],  # no file
    ["gen", "apery", "-n", "x"],
    ["indicial", "f.json"],  # no --point
    ["hypergeom", "--a", "-1/2"],  # a negative value reads as an option
])
def test_cli_usage_error_prints_one_json_object(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["error"] == "input" and out["message"]
    assert captured.err.startswith("usage: dfinite")


def test_cli_help_and_negative_first_parameter(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dfinite")
    code, out = _run(capsys, ["hypergeom", "--a=-1/2"])
    assert code == 0
    assert out["reason"] == ("one upper parameter: (1 - z)^(1/2) is algebraic, "
                             "a root of y^2 = (1 - z)^1")


def test_cli_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = _run(capsys, ["test", str(bad)])
    assert code == 2
    assert out["error"] == "input"


# (1 - z) f' - f = 0, f = 1/(1 - z): a problem that runs when well shaped
_OPERATOR = [[-1], [1, -1]]


@pytest.mark.parametrize("problem", [
    "operator initial_terms",
    [_OPERATOR, ["1"]],
    {"operator": 5, "initial_terms": ["1"]},
    {"operator": [5], "initial_terms": ["1"]},
    {"operator": [[-1], 5], "initial_terms": ["1"]},
    {"operator": _OPERATOR, "initial_terms": 5},
    {"operator": _OPERATOR, "initial_terms": "1"},
    {"operator": [[-1], [1, True]], "initial_terms": ["1"]},
    {"operator": _OPERATOR, "initial_terms": [True]},
    {"operator": _OPERATOR, "initial_terms": ["1"], "denominator": True},
    {"initial_terms": ["1"]},
    {"operator": _OPERATOR},
    {"operator": _OPERATOR, "initial_terms": ["1"], "assertions": [1]},
])
def test_cli_misshapen_problem_file(capsys, tmp_path, problem):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(problem))
    code, out = _run(capsys, ["test", str(bad)])
    assert code == 2
    assert out["error"] == "input"


def test_cli_formal_solutions_irrational_exponents(capsys, tmp_path):
    # theta^2 - 2 at 0: the exponents +-sqrt(2) are refused
    path = tmp_path / "irr.json"
    path.write_text(json.dumps({"operator": [[-2], [0, 1], [0, 0, 1]], "initial_terms": ["1", "0"]}))
    code, out = _run(capsys, ["formal-solutions", str(path), "--point", "0"])
    assert code == 2
    assert "irrational or complex roots" in out["message"]


_DEN = [[1, [0, 0]], [-1, [1, 0]], [-1, [0, 1]]]


@pytest.mark.parametrize("spec", [
    None,  # no such file
    "{not json",
    [],
    {"num": [[1, [0, 0]]], "den": _DEN},
    {"vars": ["x", "y"], "den": _DEN},
    {"vars": ["x", "y"], "num": [[1, [0, 0]]]},
    {"vars": "xy", "num": [[1, [0, 0]]], "den": _DEN},
    {"vars": ["x", "y"], "num": 5, "den": _DEN},
    {"vars": ["x", "y"], "num": [1], "den": _DEN},
    {"vars": ["x", "y"], "num": [[1]], "den": _DEN},
    {"vars": ["x", "y"], "num": [[1, [0, 0], 2]], "den": _DEN},
    {"vars": ["x", "y"], "num": [[1, 0]], "den": _DEN},
    {"vars": ["x", "y"], "num": [[1, "00"]], "den": _DEN},
    {"vars": ["x", "y"], "num": [[1, [0, True]]], "den": _DEN},
    {"vars": ["x", "y"], "num": [[True, [0, 0]]], "den": _DEN},
])
def test_cli_gen_diagonal_misshapen_spec(capsys, tmp_path, spec):
    path = tmp_path / "diag.json"
    if spec is not None:
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    code, out = _run(capsys, ["gen", "diagonal", "--spec", str(path), "-n", "3"])
    assert code == 2
    assert out["error"] == "input"


@pytest.mark.parametrize("text", [None, "{not json"])
def test_cli_verify_unreadable_report(capsys, apery_file, tmp_path, text):
    path = tmp_path / "report.json"
    if text is not None:
        path.write_text(text)
    code, out = _run(capsys, ["verify", apery_file, str(path)])
    assert code == 2
    assert out["error"] == "input"


_MALFORMED = ["1/0", "x", "1/2/3", ""]


@pytest.mark.parametrize("text", _MALFORMED)
def test_rat_from_str_rejects_malformed(text):
    with pytest.raises(InputError):
        rat_from_str(text)


@pytest.mark.parametrize("text", _MALFORMED)
@pytest.mark.parametrize("field", ["operator", "initial_terms"])
def test_cli_test_malformed_rational(capsys, tmp_path, field, text):
    problem = {"operator": [["1"], [0, 1]], "initial_terms": ["1"]}
    if field == "operator":
        problem["operator"][0] = [text]
    else:
        problem["initial_terms"] = [text]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(problem))
    code, out = _run(capsys, ["test", str(bad)])
    assert code == 2
    assert out["error"] == "input"


# the moduli (4z - 1)^2 and z^2 are not squarefree: the cluster ring would
# hold nilpotents and a split would report one branch twice; 5 is constant
@pytest.mark.parametrize("point", ["1/0", "x", "1/2/3", "poly:1,1/0", "poly:1,-8,16", "poly:0,0,1", "poly:5"])
def test_cli_indicial_malformed_point(capsys, apery_file, point):
    code, out = _run(capsys, ["indicial", apery_file, "--point", point])
    assert code == 2
    assert out["error"] == "input"


@pytest.mark.parametrize("text", _MALFORMED + [5])
def test_cli_verify_malformed_rational(capsys, apery_file, tmp_path, text):
    main(["test", apery_file])
    report = json.loads(capsys.readouterr().out)
    report["certificate"][0]["operator"][0][0] = text
    report_path = tmp_path / "bad.json"
    report_path.write_text(json.dumps(report))
    code, out = _run(capsys, ["verify", apery_file, str(report_path)])
    assert code == 2
    assert out["error"] == "input"


def _minimal_without_operator(report):
    del report["certificate"][0]["operator"]
    return report


@pytest.mark.parametrize("malform", [
    lambda report: {"certificate": "xx"},
    lambda report: {"certificate": [1, 2]},
    lambda report: report["certificate"],  # a bare list
    lambda report: dict(report, certificate=report["certificate"] + ["x"]),
    _minimal_without_operator,
])
def test_cli_verify_malformed_report(capsys, apery_file, tmp_path, malform):
    main(["test", apery_file])
    report = malform(json.loads(capsys.readouterr().out))
    report_path = tmp_path / "bad.json"
    report_path.write_text(json.dumps(report))
    code, out = _run(capsys, ["verify", apery_file, str(report_path)])
    assert code == 2
    assert out["error"] == "input"


@pytest.mark.parametrize("primes", ["9", "4", "1", "5,15", "abc", "5,x", "4294967311", "1031",
                                    "", "5,,7"])
def test_cli_pcurv_rejects_non_primes(capsys, apery_file, primes):
    # the elimination inverts numbers mod p: 9 used to report a zero
    # p-curvature, false evidence of algebraicity; primes above the
    # ceiling 2^10 are refused before any work (4294967311 used to hang);
    # an empty list or entry is malformed ("" used to print an empty
    # report, "5,,7" to drop the gap)
    code, out = _run(capsys, ["pcurv", apery_file, "--primes", primes])
    assert code == 2
    assert out["error"] == "input"


def test_cli_pcurv_small_primes_stay_bad_primes(capsys, apery_file):
    code, out = _run(capsys, ["pcurv", apery_file, "--primes", "2,3"])
    assert code == 0
    assert [(r["prime"], r["bad_prime"], r["matrix_rank"]) for r in out["reports"]] == [
        (2, True, -1), (3, True, -1)]


def test_cli_zero_operator_rejected(capsys, tmp_path):
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps({"operator": [[0]], "initial_terms": ["1"]}))
    code, out = _run(capsys, ["test", str(bad)])
    assert code == 2


def test_cli_deterministic_output(capsys, apery_file):
    main(["test", apery_file])
    first = json.loads(capsys.readouterr().out)
    main(["test", apery_file])
    second = json.loads(capsys.readouterr().out)
    first.pop("timings")
    second.pop("timings")
    assert first == second


# sha256 of each report with "timings" dropped, re-dumped as ``main`` prints
# it: the bytes of the certificates and answers, pinned across changes
_PINNED_REPORTS = [
    (["test", "apery"], "efcf48e921cc5ea5"),
    (["minimize", "apery"], "0959a9a4aeb70806"),
    (["indicial", "apery", "--point", "0"], "e71c133800e993a8"),
    (["formal-solutions", "apery", "--point", "0", "--order", "3", "--logs"], "953136019bb968bb"),
    (["guess-alg", "apery"], "d94c9a110802e5b9"),
    (["test", "sqrt"], "19cc2692e9899281"),
    (["minimize", "sqrt"], "05e64b598c2e401a"),
    (["indicial", "sqrt", "--point", "0"], "44d3e6b3c24aa0f7"),
    (["formal-solutions", "sqrt", "--point", "1/4", "--order", "3", "--logs"], "90e23c316cbe95d4"),
    (["guess-alg", "sqrt"], "49b741750815ca6e"),
    (["test", "family"], "f202f32a166c5555"),
    (["minimize", "family"], "278de0ed76cab09d"),
    # algebraic clusters: arithmetic in Q[a]/(m), ring inverses in
    # Frobenius, and a split of the sqrt cluster into z - 1/4 and z^2 + 1
    (["indicial", "apery", "--point", "poly:1,-34,1"], "a4b08b87a4b5ad4e"),
    (["formal-solutions", "apery", "--point", "poly:1,-34,1", "--order", "3", "--logs"],
     "5bf01ea84cdda731"),
    (["indicial", "sqrt", "--point", "poly:1,-4,1,-4"], "57ce2288ba0ca025"),
]


def test_cli_reports_pinned(capsys, apery_file, sqrt_file):
    files = {"apery": apery_file, "sqrt": sqrt_file,
             "family": str(ROOT / "bench" / "data" / "family_1_3.json")}
    for argv, digest in _PINNED_REPORTS:
        assert main([argv[0], files[argv[1]], *argv[2:]]) == 0
        out = json.loads(capsys.readouterr().out)
        out.pop("timings", None)
        text = json.dumps(out, separators=(",", ":"), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, argv


def test_cli_precision_exit_code(capsys, monkeypatch, apery_file):
    calls = []

    def short_of_terms(args):
        calls.append(args)
        raise PrecisionTooLow("series too short", needed=99)

    monkeypatch.setattr(cli, "_cmd_minimize", short_of_terms)
    code = main(["minimize", apery_file])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "precision"
    assert len(calls) == 1
