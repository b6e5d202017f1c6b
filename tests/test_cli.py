import hashlib
import json
import math
import re

import numpy as np
import pytest

from quasieig import (
    Cone, DimensionMismatch, NonFinite, ParseError, TheoremReport, perturbation_bound_check,
)
from quasieig import cli
from quasieig.cli import RunConfig, emit_json, emit_matrix, main, parse_matrix_file, run
from helpers import record_calls


@pytest.fixture
def ex1(tmp_path):
    p = tmp_path / "ex1.json"
    p.write_text('{"n": 2, "rows": [[2, 0], [0, 1]]}')
    return str(p)


@pytest.fixture
def ex2_text(tmp_path):
    p = tmp_path / "ex2.txt"
    p.write_text("2\n1 -1\n1 1\n")
    return str(p)


def test_parse_json_matrix(ex1):
    m = parse_matrix_file(ex1)
    assert np.array_equal(m, np.diag([2.0, 1.0]))


def test_parse_text_matrix(ex2_text):
    m = parse_matrix_file(ex2_text)
    assert np.array_equal(m, np.array([[1.0, -1.0], [1.0, 1.0]]))


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "rows": [[1, 2], [3]]}')
    with pytest.raises(ParseError):
        parse_matrix_file(str(bad))
    bad.write_text('{"n": 2, "rows": [[1, 2], [3, "x"]]}')
    with pytest.raises(ParseError):
        parse_matrix_file(str(bad))
    txt = tmp_path / "bad.txt"
    txt.write_text("2\n1 2\n3 oops\n")
    with pytest.raises(ParseError) as exc:
        parse_matrix_file(str(txt))
    assert exc.value.line == 3 and exc.value.column == 2
    txt.write_text("2\n1 2 3\n4 5 6\n")
    with pytest.raises(ParseError):
        parse_matrix_file(str(txt))
    inf = tmp_path / "inf.json"
    inf.write_text('{"n": 1, "rows": [[Infinity]]}')
    with pytest.raises(NonFinite):
        parse_matrix_file(str(inf))


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("bad.json", '{"n": 2,\n "rows": [[1, 2] [3, 4]]}',
         "invalid JSON: Expecting ',' delimiter (line 2, column 18)"),
        ("keys.json", '{"n": 2}', 'JSON matrix must be an object with "n" and "rows"'),
        ("no_n.json", '{"rows": [[1]]}', 'JSON matrix must be an object with "n" and "rows"'),
        ("float_n.json", '{"n": 1.0, "rows": [[1]]}', '"n" must be a positive integer'),
        ("zero_n.json", '{"n": 0, "rows": []}', '"n" must be a positive integer'),
        ("rows.json", '{"n": 2, "rows": [[1, 2]]}', '"rows" must hold 2 rows'),
        ("dict_rows.json", '{"n": 1, "rows": {"0": [1]}}', '"rows" must hold 1 rows'),
        ("str_row.json", '{"n": 2, "rows": [[1, 2], "34"]}', "row 1 does not have 2 entries (line 2)"),
        ("short.json", '{"n": 2, "rows": [[1, 2], [3]]}', "row 1 does not have 2 entries (line 2)"),
        ("bool.json", '{"n": 1, "rows": [[true]]}', "entry (0, 0) is not a number (line 1, column 1)"),
        ("str.json", '{"n": 1, "rows": [["1"]]}', "entry (0, 0) is not a number (line 1, column 1)"),
        ("empty.txt", "", "empty matrix file"),
        ("first.txt", "two\n1 2\n3 4\n", "first line must hold the dimension (line 1, column 1)"),
        ("zero.txt", "0\n", "dimension must be positive (line 1)"),
        ("blank.txt", "2\n1 2\n\n3 oops\n", "bad number 'oops' (line 4, column 2)"),
        ("few.txt", "2\n1 2\n", "expected 2 rows, found 1"),
        ("binary.txt", b"\xff\xfe", "matrix file is not UTF-8 text"),
    ],
)
def test_each_parse_error_exits_1_with_its_message(tmp_path, capsys, name, text, message):
    # A skipped blank line still counts toward the line number.
    f = tmp_path / name
    f.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["classify", "--matrix", str(f)]) == 1
    out = capsys.readouterr()
    assert out.out.splitlines() == [f"error: {message}", "exit 1"]
    assert "Traceback" not in out.err
    assert main(["quasi", "--matrix", str(f), "--json"]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["error"] == message
    assert "Traceback" not in out.err


def test_integer_too_large_for_a_float_exits_1(tmp_path, capsys):
    # The text format reads the same number as inf; both exit 1 with a
    # report, not a traceback.
    big = "9" * 400
    for name, text in (("big.json", f'{{"n":1,"rows":[[{big}]]}}'), ("big.txt", f"1\n{big}\n")):
        f = tmp_path / name
        f.write_text(text)
        with pytest.raises(NonFinite):
            parse_matrix_file(str(f))
        assert main(["classify", "--matrix", str(f), "--json"]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out)["error"] == "matrix entries must be finite"
        assert "Traceback" not in out.err


def test_boolean_dimension_is_a_parse_error(tmp_path):
    f = tmp_path / "bool.json"
    f.write_text('{"n": true, "rows": [[5]]}')
    with pytest.raises(ParseError, match='"n" must be a positive integer'):
        parse_matrix_file(str(f))
    code, rep = run(RunConfig(subcommand="classify", matrix_path=str(f)))
    assert code == 1 and "positive integer" in rep["error"]


def test_the_json_reader_rejects_a_non_object():
    # Only text opening with "{" reaches the JSON reader from a file.
    with pytest.raises(ParseError, match='JSON matrix must be an object with "n" and "rows"'):
        cli._parse_matrix_json("5")


def test_text_matrix_reading_stops_after_n_rows(tmp_path):
    f = tmp_path / "trailing.txt"
    f.write_text("2\n1 2\n3 4\ntrailing notes\n")
    assert np.array_equal(parse_matrix_file(str(f)), [[1.0, 2.0], [3.0, 4.0]])


def test_emit_matrix_takes_any_square_array():
    assert emit_matrix([[1, 2], [3, 4]]) == '{"n":2,"rows":[[1,2],[3,4]]}'
    with pytest.raises(NonFinite):
        emit_matrix([[math.nan]])


def test_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for k in range(20):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 8)
        p = tmp_path / f"m{k}.json"
        p.write_text(emit_matrix(m))
        back = parse_matrix_file(str(p))
        assert np.array_equal(back, m)


def test_json_report_determinism(ex1):
    code1, rep1 = run(RunConfig(subcommand="quasi", matrix_path=ex1))
    code2, rep2 = run(RunConfig(subcommand="quasi", matrix_path=ex1))
    assert code1 == code2 == 0
    assert emit_json(rep1) == emit_json(rep2)
    parsed = json.loads(emit_json(rep1))
    assert parsed["lambda_upper"] == rep1["lambda_upper"]


def test_quasi_subcommand_example1(ex1):
    code, rep = run(RunConfig(subcommand="quasi", matrix_path=ex1))
    assert code == 0
    assert rep["lambda_upper"] == pytest.approx(2.0, abs=1e-8)
    assert rep["lambda_lower"] == pytest.approx(1.0, abs=1e-8)
    assert list(rep["u_right"]) == pytest.approx([1.0, 0.0], abs=1e-8)
    assert not rep["flags"]["is_saddle"]


def test_oracle_subcommand_agrees(ex1):
    code, rep = run(RunConfig(subcommand="oracle", matrix_path=ex1, grid_k=2000))
    assert code == 0
    assert rep["flags"]["sup_inf"] == pytest.approx(2.0, abs=5e-3)
    assert rep["flags"]["inf_sup"] == pytest.approx(2.0, abs=5e-3)


def test_oracle_beyond_the_float32_range_stays_finite(tmp_path, capsys):
    p = tmp_path / "isc_1e39.json"
    p.write_text('{"n":2,"rows":[[0,2e39],[3e39,0]]}')
    assert main(["oracle", "--matrix", str(p), "--json"]) == 0
    flags = json.loads(capsys.readouterr().out)["flags"]
    value = 6**0.5 * 1e39
    for name in ("sup_inf", "inf_sup"):
        assert flags[name] == pytest.approx(value, rel=1e-2)


def test_quasi_and_oracle_agree_through_cli(tmp_path):
    rng = np.random.default_rng(42)
    p = tmp_path / "r3.json"
    p.write_text(emit_matrix(rng.uniform(-1, 1, (3, 3))))
    _, rq = run(RunConfig(subcommand="quasi", matrix_path=str(p), cone_spec="rotation:6"))
    _, ro = run(RunConfig(subcommand="oracle", matrix_path=str(p), cone_spec="rotation:6"))
    assert rq["lambda_upper"] == pytest.approx(ro["flags"]["sup_inf"], abs=1e-2)


def test_classify_subcommand(ex2_text):
    code, rep = run(RunConfig(subcommand="classify", matrix_path=ex2_text))
    assert code == 0
    assert rep["flags"]["normal"] and rep["flags"]["irreducible"]
    assert not rep["flags"]["sign_constant_offdiag"]


def test_perron_not_applicable_exit_code(ex2_text):
    code, rep = run(RunConfig(subcommand="perron", matrix_path=ex2_text))
    assert code == 2
    assert not rep["theorem_reports"][0]["applicable"]


def test_verify_subcommand(tmp_path):
    p = tmp_path / "isc.json"
    p.write_text('{"n": 2, "rows": [[0, 2], [3, 0]]}')
    code, rep = run(RunConfig(subcommand="verify", matrix_path=str(p), seed=0))
    assert code == 0
    assert all(r["holds"] for r in rep["theorem_reports"] if r["applicable"])
    names = {r["name"] for r in rep["theorem_reports"]}
    assert {"spectral_sandwich", "perron_root", "isc_saddle", "orthogonal_invariance"} <= names


def test_normal_subcommand(tmp_path):
    p = tmp_path / "skew.json"
    p.write_text('{"n": 2, "rows": [[0, -1], [1, 0]]}')
    code, rep = run(RunConfig(subcommand="normal", matrix_path=str(p)))
    assert code == 0
    assert rep["flags"]["rotation_blocks"][0][0] == pytest.approx(1.0, abs=1e-10)
    code, _ = run(RunConfig(subcommand="normal", matrix_path=str(p), cone_spec="rotation:3"))
    assert code == 0
    p2 = tmp_path / "nonnormal.json"
    p2.write_text('{"n": 2, "rows": [[1, 1], [0, 1]]}')
    code, _ = run(RunConfig(subcommand="normal", matrix_path=str(p2)))
    assert code == 2


@pytest.mark.parametrize("cone_spec", ["orthant", "rotation:3"])
def test_normal_and_verify_run_on_a_repeated_eigenvalue(tmp_path, cone_spec):
    # V (R(1, pi/3) + 0.5 + 0.5) V^T: numpy returns the double eigenvalue
    # as a pair 0.5 +- i eps at this seed.  No real eigenvector meets the
    # open cone, so the classification does not apply.
    from helpers import repeated_normal

    p = tmp_path / "repeated.json"
    p.write_text(emit_matrix(repeated_normal("rot_pi3_half_half", 190)))
    code, rep = run(RunConfig(subcommand="normal", matrix_path=str(p), cone_spec=cone_spec))
    assert code == 2 and "error" not in rep, rep
    assert rep["flags"]["real_eigs"] == pytest.approx([0.5, 0.5], abs=1e-8)
    code, rep = run(RunConfig(subcommand="verify", matrix_path=str(p), cone_spec=cone_spec))
    assert code == 0 and "error" not in rep, rep


def test_verify_runs_on_a_matrix_that_classify_reads_as_normal(tmp_path):
    # classify's 1e-10 commutator test reads the matrix as normal, but it departs
    # from normality by about 1e-6, far outside the canonical form's 1e-8 ||A||
    # residual contract: verify reads the classification as not applicable, and
    # normal, which prints the form itself, stops on the error.
    p = tmp_path / "near_normal.json"
    p.write_text('{"n": 3, "rows": [[2e-6, 2e-6, 0], [0, 0, 0], [0, 0, 1]]}')
    code, rep = run(RunConfig(subcommand="verify", matrix_path=str(p)))
    assert code == 0 and "error" not in rep, rep
    report = {r["name"]: r for r in rep["theorem_reports"]}["normal_cone_classification"]
    assert not report["applicable"]
    assert report["details"] == "not applicable: canonical form residual exceeds contract"
    code, rep = run(RunConfig(subcommand="normal", matrix_path=str(p)))
    assert (code, rep["error"]) == (3, "canonical form residual exceeds contract")


def test_perturb_subcommand(tmp_path, ex1):
    base = tmp_path / "isc.json"
    base.write_text('{"n": 2, "rows": [[0, 2], [3, 0]]}')
    d = tmp_path / "d.json"
    d.write_text('{"n": 2, "rows": [[0.01, 0.01], [0.01, 0.01]]}')
    code, rep = run(
        RunConfig(subcommand="perturb", matrix_path=str(base), perturbation_path=str(d))
    )
    assert code == 0 and rep["theorem_reports"][0]["holds"]
    # boundary quasi-eigenvectors: inapplicable
    code, _ = run(RunConfig(subcommand="perturb", matrix_path=ex1, perturbation_path=str(d)))
    assert code == 2


def test_reports_carry_the_solved_and_grid_values(tmp_path):
    from quasieig import brute_minimax, quasi_pair

    isc = np.array([[0.0, 2.0], [3.0, 0.0]])
    p = tmp_path / "isc.json"
    p.write_text(emit_matrix(isc))
    d = tmp_path / "d.json"
    d.write_text('{"n": 2, "rows": [[0.01, 0.01], [0.01, 0.01]]}')
    r = quasi_pair(isc, Cone.orthant(2))
    digest = hashlib.sha256(emit_matrix(isc).encode()).hexdigest()
    for sub in ("quasi", "perturb", "verify"):
        code, rep = run(RunConfig(subcommand=sub, matrix_path=str(p), perturbation_path=str(d)))
        assert code == 0 and rep["input_digest"] == digest
        assert (rep["lambda_upper"], rep["lambda_lower"]) == (r.lambda_upper, r.lambda_lower)
        assert np.array_equal(rep["u_right"], r.u_right) and np.array_equal(rep["v_left"], r.v_left)
        assert {k: rep["flags"][k] for k in ("u_interior", "v_interior", "is_saddle")} == {
            "u_interior": r.u_interior, "v_interior": r.v_interior, "is_saddle": r.is_saddle
        }
    code, rep = run(RunConfig(subcommand="oracle", matrix_path=str(p)))
    sup_inf, inf_sup = brute_minimax(isc, Cone.orthant(2), 2000)
    assert (rep["lambda_upper"], rep["flags"]) == (sup_inf, {"sup_inf": sup_inf, "inf_sup": inf_sup})


@pytest.mark.parametrize("rows, interior", [
    ([[0.0, 2.0, 1.0], [-3.0, 0.0, 1.0], [3.0, 2.0, 2.0]], (False, True)),
    ([[0.0, -2.0, -1.0], [0.0, -1.0, -2.0], [-3.0, 2.0, -2.0]], (True, False)),
])
def test_verify_checks_perturbations_when_one_vector_is_interior(tmp_path, rows, interior):
    p = tmp_path / "a.json"
    p.write_text(emit_matrix(np.array(rows)))
    code, rep = run(RunConfig(subcommand="verify", matrix_path=str(p)))
    assert code == 0 and (rep["flags"]["u_interior"], rep["flags"]["v_interior"]) == interior
    [perturbed] = [r for r in rep["theorem_reports"] if r["name"] == "perturbation_bounds"]
    assert perturbed["applicable"] and perturbed["holds"]


@pytest.mark.parametrize("scale", [0.1, 1.0])
def test_verify_perturbs_by_a_twentieth_of_the_norm_at_least_one(tmp_path, monkeypatch, scale):
    import quasieig.analysis as analysis_module

    a = scale * np.array([[0.0, 2.0], [3.0, 0.0]])  # ||A|| = 3 scale
    p = tmp_path / "isc.json"
    p.write_text(emit_matrix(a))
    checked = record_calls(monkeypatch, analysis_module, "perturbation_bound_check")
    assert run(RunConfig(subcommand="verify", matrix_path=str(p)))[0] == 0
    [(_, _, d, _)] = checked
    assert np.linalg.norm(d, 2) == pytest.approx(0.05 * max(3.0 * scale, 1.0), rel=1e-12)


def test_invariance_subcommand(ex1):
    code, rep = run(RunConfig(subcommand="invariance", matrix_path=ex1, seed=3))
    assert code == 0 and rep["theorem_reports"][0]["holds"]


def test_cone_spec_variants(tmp_path, ex1):
    code, _ = run(RunConfig(subcommand="quasi", matrix_path=ex1, cone_spec="rotation:7"))
    assert code == 0
    u = tmp_path / "u.json"
    u.write_text('{"n": 2, "rows": [[0, -1], [1, 0]]}')
    code, _ = run(RunConfig(subcommand="quasi", matrix_path=ex1, cone_spec=str(u)))
    assert code == 0
    bad = tmp_path / "bad_u.json"
    bad.write_text('{"n": 2, "rows": [[1, 1], [0, 1]]}')
    code, rep = run(RunConfig(subcommand="quasi", matrix_path=ex1, cone_spec=str(bad)))
    assert code == 1 and "error" in rep
    for spec in ("rotation:x", "rotation:-3"):
        code, rep = run(RunConfig(subcommand="quasi", matrix_path=ex1, cone_spec=spec))
        assert (code, rep["error"]) == (1, f"bad rotation seed in cone spec {spec!r}")


def test_main_exit_codes(tmp_path, ex1, capsys):
    assert main(["quasi", "--matrix", ex1, "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["subcommand"] == "quasi"
    assert main(["quasi", "--matrix", str(tmp_path / "missing.json")]) == 1
    assert main(["nope", "--matrix", ex1]) == 1
    assert main(["quasi", "--matrix", ex1, "--tol", "0.5"]) == 1


def test_human_quasi_report(ex1, capsys):
    assert main(["quasi", "--matrix", ex1]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["lambda_upper = 2", "lambda_lower = 1"]
    assert lines[2].startswith("u_right = [") and lines[3].startswith("v_left  = [")
    flags = ["u_interior", "v_interior", "is_saddle", "eigen_residual_right", "eigen_residual_left"]
    assert [line.split(" = ")[0] for line in lines[4:-1]] == flags
    assert lines[-1] == "exit 0"


def test_human_verify_report_prints_one_line_per_theorem_report(tmp_path, capsys):
    p = tmp_path / "isc.json"
    p.write_text('{"n": 2, "rows": [[0, 2], [3, 0]]}')
    code, rep = run(RunConfig(subcommand="verify", matrix_path=str(p)))
    assert main(["verify", "--matrix", str(p)]) == code == 0
    lines = capsys.readouterr().out.splitlines()
    status = [line for line in lines if re.match(r"\[(HOLDS|N/A|FAILS)\] ", line)]
    names = [r["name"] for r in rep["theorem_reports"]]
    assert [line.split("] ")[1].split(":")[0] for line in status] == names
    assert lines[-1] == "exit 0"


def test_one_failing_report_exits_3_and_each_status_prints(ex1, monkeypatch, capsys):
    # Any applicable report that fails makes the exit 3, whatever the others
    # read; the human report marks each line with its own status.
    reps = [TheoremReport("a", True, 0.0, 0.0, 0.0, "ok"),
            TheoremReport("b", False, 1.0, 0.0, -1.0, "broken"),
            TheoremReport("c", False, 0.0, 0.0, 0.0, "skipped", applicable=False)]
    monkeypatch.setitem(cli._COMMANDS, "classify", (lambda config, m, cone, report: reps, ()))
    assert main(["classify", "--matrix", ex1]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("[")] == [
        "[HOLDS] a: slack=0 ok", "[FAILS] b: slack=-1 broken", "[N/A] c: slack=0 skipped"]
    assert lines[-1] == "exit 3"


def test_negative_seed_exits_1(ex1, capsys):
    for argv in (["quasi", "--cone", "rotation:-1"], ["invariance", "--seed", "-1"],
                 ["verify", "--seed", "-1"]):
        assert main([*argv, "--matrix", ex1]) == 1, argv
        assert "Traceback" not in capsys.readouterr().err
    code, rep = run(RunConfig(subcommand="quasi", matrix_path=ex1, cone_spec="rotation:-1"))
    assert code == 1 and "rotation:-1" in rep["error"]
    with pytest.raises(ValueError, match="seed"):
        RunConfig(subcommand="invariance", matrix_path=ex1, seed=-1)


def test_runconfig_validation(ex1):
    with pytest.raises(ValueError):
        RunConfig(subcommand="quasi", matrix_path=ex1, tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(subcommand="quasi", matrix_path=ex1, grid_k=5)
    with pytest.raises(ValueError):
        RunConfig(subcommand="bogus", matrix_path=ex1)


def test_emit_json_17_digits():
    x = 0.1 + 0.2
    s = emit_json({"v": x})
    assert json.loads(s)["v"] == x
    assert emit_json(float("nan")) == "NaN"
    assert emit_json([math.inf, -math.inf]) == "[Infinity,-Infinity]"
    assert emit_json([True, None, 3]) == "[true,null,3]"
    with pytest.raises(TypeError):
        emit_json(object())


def test_perturb_without_a_perturbation_exits_1(ex1):
    code, rep = run(RunConfig(subcommand="perturb", matrix_path=ex1))
    assert (code, rep["error"]) == (1, "perturb requires --perturbation")


def test_verify_solves_each_distinct_instance_once(tmp_path, monkeypatch):
    # An n = 4 ISC matrix over the orthant has three distinct instances:
    # the base pair, the conjugated pair of the invariance check and the
    # perturbed pair.  A rotated cone adds the orthant pair the Perron,
    # max-real-part and ISC checks share (seed 55 keeps the base pair's
    # vectors interior to the rotation:3 cone, so the perturbation check
    # still runs).  Every check reads one classification and at most one
    # eigendecomposition of the matrix.
    import quasieig.analysis as analysis_module
    import quasieig.quasi as quasi_module
    from helpers import random_isc

    p = tmp_path / "isc4.json"
    p.write_text(emit_matrix(random_isc(np.random.default_rng(55), 4, sign=1)))
    classified = record_calls(monkeypatch, analysis_module, "classify")
    decomposed = record_calls(monkeypatch, analysis_module, "eig_oracle")
    pairs = record_calls(monkeypatch, quasi_module, "_search")
    for spec, expected in (("orthant", 3), ("rotation:3", 4)):
        for calls in (classified, decomposed, pairs):
            calls.clear()
        code, _ = run(RunConfig(subcommand="verify", matrix_path=str(p), cone_spec=spec))
        assert code == 0
        assert len(pairs) == expected, (spec, len(pairs))
        assert len(classified) == 1, spec
        assert len(decomposed) <= 1, spec


def test_verify_solves_the_orthant_upper_value_once_for_a_reducible_matrix(
    tmp_path, monkeypatch
):
    # A reducible nonnegative matrix is not ISC, so over a rotated cone only
    # the Perron and max-real-part checks read the orthant pair, and they
    # share it.  With the base and conjugated pairs (both vectors are on
    # the boundary, so no perturbed pair), that is three pairs.
    import quasieig.analysis as analysis_module

    p = tmp_path / "reducible.json"
    p.write_text('{"n": 3, "rows": [[1, 1, 0], [0, 2, 0], [0.5, 0, 0.7]]}')
    pairs = record_calls(monkeypatch, analysis_module, "quasi_pair")
    code, rep = run(RunConfig(subcommand="verify", matrix_path=str(p), cone_spec="rotation:3"))
    assert code == 0
    assert rep["flags"]["nonnegative"] and not rep["flags"]["isc"]
    assert len(pairs) == 3


def test_verify_takes_the_norm_of_a_normal_matrix_once(tmp_path, monkeypatch):
    # A symmetric positive matrix is normal with interior quasi-eigenvectors,
    # so both the canonical form and the perturbation's scale need its
    # spectral norm; they share one.
    import quasieig.analysis as analysis_module

    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    p = tmp_path / "sym.json"
    p.write_text(emit_matrix(m))
    norms = [record_calls(monkeypatch, mod, "operator_norm") for mod in (analysis_module, cli)]
    code, rep = run(RunConfig(subcommand="verify", matrix_path=str(p)))
    assert code == 0
    names = {r["name"] for r in rep["theorem_reports"]}
    assert {"normal_cone_classification", "perturbation_bounds"} <= names, names
    assert sum(np.array_equal(x, m) for calls in norms for x, in calls) == 1


def test_normal_classifies_and_decomposes_the_matrix_once(tmp_path, monkeypatch):
    import quasieig.analysis as analysis_module
    from helpers import random_normal_matrix

    p = tmp_path / "normal5.json"
    p.write_text(emit_matrix(random_normal_matrix(np.random.default_rng(3), 5)[0]))
    names = ("classify", "eig_oracle", "normal_canonical_form")
    calls = {name: record_calls(monkeypatch, analysis_module, name) for name in names}
    code, rep = run(RunConfig(subcommand="normal", matrix_path=str(p)))
    # No real eigenvector of this matrix meets the open orthant, so the
    # classification does not apply; it still decomposes the matrix once.
    assert "error" not in rep and code == 2
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(names, 1)


_EXIT_CASES = {
    "example1": ("[[2, 0], [0, 1]]", {"perturb": 2}),
    "example2": ("[[1, -1], [1, 1]]", {"perron": 2, "maxre": 2, "perturb": 2}),
    "isc": ("[[0, 2], [3, 0]]", {"normal": 2}),
}


@pytest.mark.parametrize(
    "sub", ["quasi", "classify", "perron", "maxre", "perturb", "normal", "invariance",
            "oracle", "verify"]
)
@pytest.mark.parametrize("case", sorted(_EXIT_CASES))
def test_exit_code_of_every_subcommand(tmp_path, case, sub):
    rows, nonzero = _EXIT_CASES[case]
    p = tmp_path / "a.json"
    p.write_text(f'{{"n": 2, "rows": {rows}}}')
    d = tmp_path / "d.json"
    d.write_text('{"n": 2, "rows": [[0.01, 0.01], [0.01, 0.01]]}')
    code, rep = run(RunConfig(subcommand=sub, matrix_path=str(p), perturbation_path=str(d)))
    assert code == nonzero.get(sub, 0)
    assert rep.get("error") == ("matrix is not normal" if (case, sub) == ("isc", "normal") else None)


def test_perturbation_file_errors_exit_1(tmp_path):
    base = tmp_path / "isc.json"
    base.write_text('{"n": 2, "rows": [[0, 2], [3, 0]]}')
    d3 = tmp_path / "d3.json"
    d3.write_text('{"n": 3, "rows": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}')
    for d in (tmp_path / "missing.json", d3):
        code, rep = run(
            RunConfig(subcommand="perturb", matrix_path=str(base), perturbation_path=str(d))
        )
        assert code == 1 and "error" in rep
    a = np.array([[0.0, 2.0], [3.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        perturbation_bound_check(a, Cone.orthant(2), np.zeros((3, 3)))


def test_classify_at_extreme_scale_exits_0(tmp_path, capsys):
    f = tmp_path / "isc.json"
    f.write_text('{"n":2,"rows":[[0,2e154],[3e154,0]]}')
    assert main(["classify", "--matrix", str(f), "--json"]) == 0
    flags = json.loads(capsys.readouterr().out)["flags"]
    assert flags["irreducible"] and flags["isc"] and not flags["normal"]


def test_classify_of_matrix_whose_norm_overflows_exits_0(tmp_path, capsys):
    f = tmp_path / "big.json"
    f.write_text('{"n":2,"rows":[[1e308,1e308],[1e308,1e308]]}')
    assert main(["classify", "--matrix", str(f), "--json"]) == 0
    flags = json.loads(capsys.readouterr().out)["flags"]
    assert flags["nonnegative"] and flags["symmetric"] and flags["normal"]


def test_quasi_at_large_scale_exits_0(tmp_path, capsys):
    # The ISC fixture times 1e7: the feasibility slack exceeds tol / 4, so
    # each bracket closes at twice the slack, not at tol / 2, and the
    # search never reaches its step budget (which exits 3).
    f = tmp_path / "isc_1e7.json"
    f.write_text('{"n":2,"rows":[[0,2e7],[3e7,0]]}')
    assert main(["quasi", "--matrix", str(f), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["lambda_upper"] - 6e14**0.5) <= 1e-12 * 6e14**0.5


def test_quasi_at_1e300_prints_finite_residuals(tmp_path, capsys):
    # The residual norms of the ISC fixture times 1e300 once overflowed, and
    # the JSON report printed Infinity for both.
    f = tmp_path / "isc_1e300.json"
    f.write_text('{"n":2,"rows":[[0,2e300],[3e300,0]]}')
    assert main(["quasi", "--matrix", str(f), "--json"]) == 0
    out = capsys.readouterr().out
    assert "Infinity" not in out
    flags = json.loads(out)["flags"]
    for name in ("eigen_residual_right", "eigen_residual_left"):
        assert 0.0 <= flags[name] <= 1e-12 * 6.0**0.5 * 1e300, (name, flags[name])


# A value other than RunConfig's default for each option a test sets.
_NON_DEFAULT = {"cone": "rotation:3", "tol": "1e-6", "grid": "50", "seed": "4"}


def _argv(tmp_path, sub):
    """``sub`` on a symmetric positive matrix (nonnegative, ISC and normal,
    so every checker applies), with the perturbation ``perturb`` needs."""
    p = tmp_path / "a.json"
    p.write_text('{"n": 3, "rows": [[2, 1, 0.5], [1, 3, 1], [0.5, 1, 1]]}')
    d = tmp_path / "d.json"
    d.write_text('{"n": 3, "rows": [[0, 0.01, 0], [0.01, 0, 0], [0, 0, 0.01]]}')
    extra = ["--perturbation", str(d)] if "perturbation" in cli._COMMANDS[sub][1] else []
    return [sub, "--matrix", str(p), "--json", *extra]


@pytest.mark.parametrize(
    "sub, option",
    [(s, o) for s, (_, opts) in cli._COMMANDS.items() for o in opts if o != "perturbation"],
)
def test_each_option_a_subcommand_takes_changes_its_report(tmp_path, capsys, sub, option):
    reports = []
    for extra in ([], [f"--{option}", _NON_DEFAULT[option]]):
        main([*_argv(tmp_path, sub), *extra])
        report = json.loads(capsys.readouterr().out)
        reports.append({k: v for k, v in report.items() if k not in ("tol", "seed")})
    assert reports[0] != reports[1]


@pytest.mark.parametrize(
    "sub, option",
    [(s, o) for s, (_, opts) in cli._COMMANDS.items() for o in cli._OPTIONS if o not in opts],
)
def test_an_option_a_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, sub, option):
    value = _NON_DEFAULT.get(option, str(tmp_path / "a.json"))
    assert main([*_argv(tmp_path, sub), f"--{option}", value]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("usage error") and "Traceback" not in out.err
    assert out.out == ""


@pytest.mark.parametrize("sub", list(cli._COMMANDS))
def test_help_lists_only_the_options_a_subcommand_takes(capsys, sub):
    with pytest.raises(SystemExit):
        main([sub, "--help"])
    flags = set(re.findall(r"--\w+", capsys.readouterr().out))
    assert flags == {"--help", "--matrix", "--json", *(f"--{o}" for o in cli._COMMANDS[sub][1])}
