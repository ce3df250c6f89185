import json
from pathlib import Path

import numpy as np
import pytest

import grasscode.analysis as analysis
import grasscode.core_linalg as core_linalg
from grasscode.cli import main
from grasscode.core_linalg import Code
from grasscode.io import read_code, write_code

from conftest import counting_kernel, pass_form


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_writes_file(tmp_path, capsys):
    path = tmp_path / "pauli1.json"
    code, out, _ = run(capsys, "construct", "pauli", "--k", "1", "-o", str(path))
    assert code == 0
    assert "6 subspaces in G(1,2)" in out
    S = read_code(path)
    assert len(S) == 6


def test_construct_stdout_json(capsys):
    code, out, _ = run(capsys, "construct", "mub", "--p", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "grasscode-v1"
    assert len(doc["subspaces"]) == 12


def test_angles_and_verify_bit_stable(tmp_path, capsys):
    path = tmp_path / "mub5.json"
    run(capsys, "construct", "mub", "--p", "5", "-o", str(path))
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "angles", str(path), "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["members"] == 30
    assert len(doc["classes"]) == 3
    verifies = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify-design", "--t", "2", str(path))
        assert code == 0
        verifies.append(out)
    assert verifies[0] == verifies[1]
    assert "2-design: true" in verifies[0]


def test_bound_two_distance(capsys):
    code, out, _ = run(capsys, "bound", "two-distance", "--n", "9", "--m", "3",
                       "--alpha", "0", "--beta", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "120"
    assert doc["applicable"] is True


def test_bound_rational_and_decimal_flags(capsys):
    code, out, _ = run(capsys, "bound", "one-distance", "--n", "2", "--m", "1",
                       "--alpha", "1/4", "--json")
    assert code == 0
    assert json.loads(out)["value"] == "3"
    # decimals convert exactly as written
    code, out2, _ = run(capsys, "bound", "one-distance", "--n", "2", "--m", "1",
                        "--alpha", "0.25", "--json")
    assert code == 0
    assert json.loads(out2) == json.loads(out)


def test_bound_simplex_and_design(capsys):
    code, out, _ = run(capsys, "bound", "simplex", "--n", "4", "--m", "2",
                       "--alpha", "14/15")
    assert code == 0 and "N = 16" in out
    code, out, _ = run(capsys, "bound", "simplex", "--n", "4", "--m", "2",
                       "--k", "16", "--json")
    assert code == 0
    assert json.loads(out)["simplex_alpha"] == "14/15"
    code, out, _ = run(capsys, "bound", "design", "--t", "2", "--m", "2",
                       "--n", "4")
    assert code == 0 and "16" in out


def test_table_sweep(capsys):
    for m, n in [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)]:
        code, out, _ = run(capsys, "table", "--n", str(n), "--m", str(m))
        assert code == 0
        for needle in ("absolute |A|=1", "absolute |A|=2", "relative |A|=1",
                       "relative |A|=2", "alpha+beta <=",
                       "alpha+beta - n alpha beta"):
            assert needle in out, (m, n, needle)


def test_table_json_and_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "table", "--n", "4", "--m", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["value"] == "16"
    csv_path = tmp_path / "t.csv"
    code, _, _ = run(capsys, "table", "--n", "4", "--m", "2",
                     "-o", str(csv_path))
    assert code == 0
    assert csv_path.read_text().splitlines()[0] == "kind,value,applicable,conditions"


def test_dims_output(capsys):
    code, out, _ = run(capsys, "dims", "--n", "4", "--m", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    dims = {d["mu"]: d["dim"] for d in doc["dim_H"]}
    assert dims == {"(1)": 15, "(2)": 84, "(1,1)": 20}
    assert doc["dim_H_k"][-1] == {"k": 2, "dim": 120}


@pytest.mark.parametrize("argv, needles", [
    (["bound", "absolute", "--m", "2", "--n", "4", "--k", "2"],
     ["absolute bound (2 distances): 120", "dim H_2: 120"]),
    (["bound", "absolute", "--m", "2", "--n", "4", "--k", "2", "--json"],
     ['"bound": 120, "dim_H_k": 120']),
    (["bound", "one-distance", "--alpha", "1/6", "--m", "1", "--n", "5"],
     ["one-distance bound: 25", "margin 1/30"]),
    (["bound", "one-distance", "--alpha", "1/3", "--m", "1", "--n", "3"],
     ["undefined", "NOT applicable", "(boundary)"]),
    (["bound", "two-distance", "--alpha", "0", "--beta", "1", "--m", "3",
      "--n", "9"], ["two-distance bound: 120"]),
    (["bound", "design", "--m", "2", "--n", "4", "--t", "2", "--json"],
     ['"bound": 16']),
    (["bound", "simplex", "--m", "2", "--n", "4", "--alpha", "1/2", "--json"],
     ['"N": "3"']),
    (["dims", "--n", "4", "--m", "2"],
     ["dim H_(2) = 84", "dim H_2(2,4) = 120"]),
    (["dims", "--n", "3"], ["dim H_(1) = 8", "dim H_(2) = 27"]),
])
def test_bound_and_dims_outputs(capsys, argv, needles):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    for needle in needles:
        assert needle in out


@pytest.mark.parametrize("command, needle", [
    ("gram", "[[2. 0. 1. 1."), ("check-scheme", "association scheme: yes")])
def test_file_commands_text_output(tmp_path, capsys, command, needle):
    path = tmp_path / "p2.json"
    run(capsys, "construct", "pauli", "--k", "2", "-o", str(path))
    code, out, err = run(capsys, command, str(path))
    assert code == 0 and err == ""
    assert out.startswith(needle)


def test_gram_text_holds_every_entry(tmp_path, capsys):
    # mub(11) has N = 132, so N^2 entries exceed numpy's default summary
    # threshold: the text, to stdout or to -o, is still the whole gram
    path, out_path = str(tmp_path / "mub11.json"), tmp_path / "gram.txt"
    run(capsys, "construct", "mub", "--p", "11", "-o", path)
    code, out, err = run(capsys, "gram", path)
    assert (code, err) == (0, "") and "..." not in out
    assert run(capsys, "gram", path, "-o", str(out_path)) == (0, "", "")
    assert out_path.read_text() == out
    got = np.array(out.replace("[", " ").replace("]", " ").split(), float)
    want = np.array(json.loads(run(capsys, "gram", path, "--json")[1])["gram"])
    assert want.shape == (132, 132)
    assert np.abs(got.reshape(want.shape) - want).max() < 1e-6


def test_gram_json(tmp_path, capsys):
    path = tmp_path / "m3.json"
    run(capsys, "construct", "mub", "--p", "3", "-o", str(path))
    code, out, _ = run(capsys, "gram", str(path), "--json")
    assert code == 0
    g = np.array(json.loads(out)["gram"])
    assert g.shape == (12, 12)
    assert np.abs(g - g.T).max() == 0.0


def test_check_scheme_json(tmp_path, capsys):
    path = tmp_path / "p2.json"
    run(capsys, "construct", "pauli", "--k", "2", "-o", str(path))
    code, out, _ = run(capsys, "check-scheme", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_scheme"] is True
    assert doc["classes"] == 4
    # strength is tested to 2t = 4, so the degree-3 pairs are certified
    idem = doc["idempotents"]
    assert idem["strength"] == 3
    cert = {(q["mu"], q["lam"]): q["certified"] for q in idem["pairs"]}
    for pair in [("(1)", "(2)"), ("(1)", "(1,1)")]:
        assert cert[pair] and cert[pair[::-1]]
    assert not cert[("(2)", "(2)")] and not cert[("(1,1)", "(1,1)")]


def test_check_scheme_degree_three(tmp_path, capsys):
    path = tmp_path / "p2.json"
    run(capsys, "construct", "pauli", "--k", "2", "-o", str(path))
    code, out, _ = run(capsys, "check-scheme", str(path), "--t", "3", "--json")
    assert code == 0
    idem = json.loads(out)["idempotents"]
    assert idem["strength"] == 3
    mus = {p["mu"] for p in idem["pairs"]}
    assert {"(3)", "(2,1)"} <= mus
    assert len(idem["pairs"]) == 36      # six partitions of size <= 3
    degree3 = [p for p in idem["pairs"] if p["mu"] in ("(3)", "(2,1)")]
    assert all(p["required_design"] >= 3 for p in degree3)


def test_verify_design_degree_three(tmp_path, capsys):
    path = tmp_path / "p2.json"
    run(capsys, "construct", "pauli", "--k", "2", "-o", str(path))
    code, out, _ = run(capsys, "verify-design", str(path), "--t", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["strength"] == 3
    assert doc["design"] == {"1": True, "2": True, "3": True}


def test_info(tmp_path, capsys):
    path = tmp_path / "m5.json"
    run(capsys, "construct", "mub", "--p", "5", "-o", str(path))
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0
    assert "30 subspaces in G(1,5)" in out


def test_non_numeric_entry_is_format_error(tmp_path, capsys):
    path = tmp_path / "m5.json"
    run(capsys, "construct", "mub", "--p", "5", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["subspaces"][3][1][0] = ["x", 0.0]
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "info", str(path))
    assert code == 1
    assert err.startswith("error: subspace 3:")


def test_exit_code_validation_error(capsys):
    code, _, err = run(capsys, "bound", "one-distance", "--n", "4", "--m", "2")
    assert code == 1
    assert "alpha" in err
    # no H_mu with mu != () exists for n < 2, but C^n itself needs n >= 1
    code, _, err = run(capsys, "dims", "--n", "0")
    assert code == 1
    assert "--n >= 1" in err


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "pauli", "--k", "nope"])
    assert exc.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check-scheme", "{f}", "--tol", "nan"],
    ["check-scheme", "{f}", "--tol", "-1"],
    ["check-scheme", "{f}", "--tol", "inf"],
    ["check-scheme", "{f}", "--tol", "0"],
    ["angles", "{f}", "--tol", "x"],
    ["verify-design", "{f}", "--t", "-1"],
    ["check-scheme", "{f}", "--t", "-2"],
    ["bound", "design", "--n", "5", "--m", "1", "--t", "-1"],
])
def test_invalid_tol_and_t_rejected_at_parse_time(tmp_path, capsys, argv):
    "a tolerance must be finite and > 0, a degree >= 0: usage error, exit 1"
    path = tmp_path / "mub5.json"
    run(capsys, "construct", "mub", "--p", "5", "-o", str(path))
    flag = argv[-2]
    with pytest.raises(SystemExit) as exc:
        main([a.format(f=path) for a in argv])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument %s" % flag in out.err


@pytest.mark.parametrize("argv", [
    ["construct", "mub", "--p", "3", "--tol", "1e-3"],
    ["bound", "design", "--n", "5", "--m", "1", "--t", "2", "--tol", "1e-3"],
    ["table", "--m", "2", "--n", "4", "--tol", "1e-3"],
    ["dims", "--n", "4", "--tol", "1e-3"],
])
def test_tol_refused_where_no_float_is_compared(capsys, argv):
    "construct, bound, table and dims never read --tol: usage error, exit 1"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --tol 1e-3" in out.err


@pytest.mark.parametrize("extra", [[], ["-o", "FILE"]])
def test_construct_refuses_json(tmp_path, capsys, extra):
    "construct always prints a code document: --json is a usage error"
    extra = [str(tmp_path / "c.json") if a == "FILE" else a for a in extra]
    with pytest.raises(SystemExit) as exc:
        main(["construct", "mub", "--p", "3", "--json"] + extra)
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --json" in out.err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("t", ["2", "3"])
@pytest.mark.parametrize("family", [["pauli", "--k", "2"],
                                    ["extraspecial", "--p", "3", "--n", "2",
                                     "--k", "1"]])
def test_verify_design_runs_no_eigen_solve(tmp_path, capsys, monkeypatch,
                                           family, t):
    path = tmp_path / "code.json"
    run(capsys, "construct", *family, "-o", str(path))
    calls = counting_kernel(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("eigen-solve in verify-design")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    code, out, _ = run(capsys, "verify-design", str(path), "--t", t, "--json")
    assert code == 0
    # pauli(2) is a 3-design in G(2,4), es(3,2,1) a 2-design in G(3,9)
    strength, m = (3, 2) if family[0] == "pauli" else (2, 3)
    assert json.loads(out)["strength"] == min(strength, int(t))
    assert calls == [("sums", min(int(t), m))]   # one pass, no angles


@pytest.mark.parametrize("command", ["angles", "gram", "verify-design",
                                     "check-scheme", "info"])
def test_tol_accepted_where_read(tmp_path, capsys, command):
    path = tmp_path / "mub3.json"
    run(capsys, "construct", "mub", "--p", "3", "-o", str(path))
    code, out, _ = run(capsys, command, str(path), "--tol", "1e-6", "--json")
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize("argv", [
    ["dims", "--n", "4", "--k", "-1"],
    ["dims", "--n", "4", "--m", "2", "--k", "-3", "--json"],
    ["bound", "absolute", "--n", "4", "--m", "2", "--k", "-1"],
])
def test_negative_k_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --k" in out.err


def test_bound_simplex_alpha_above_threshold_refused(capsys):
    # the simplex threshold stays below m^2/n = 1 in G(2,4)
    for alpha in ("2", "3", "11/10"):
        code, out, err = run(capsys, "bound", "simplex", "--n", "4", "--m",
                             "2", "--alpha", alpha)
        assert code == 1 and out == ""
        assert "exceeds m^2/n" in err
    code, out, err = run(capsys, "bound", "simplex", "--n", "4", "--m", "2",
                         "--alpha", "1")
    assert code == 1 and out == "" and "no finite N" in err


@pytest.mark.parametrize("argv", [
    ["one-distance", "--m", "2", "--n", "0", "--alpha", "1"],
    ["simplex", "--m", "1", "--n", "0", "--k", "3"],
    ["one-distance", "--m", "-1", "--n", "3", "--alpha", "0"],
    ["one-distance", "--m", "3", "--n", "2", "--alpha", "0"],
    ["simplex", "--m", "3", "--n", "2", "--k", "5"],
    ["simplex", "--m", "3", "--n", "2", "--alpha", "1/2"],
])
def test_bound_outside_its_domain_refused(argv, capsys):
    # the closed forms hold on 1 <= m <= n, n >= 2: outside it no value is
    # printed, and n = 0 is no ZeroDivisionError
    code, out, err = run(capsys, "bound", *argv)
    assert code == 1 and out == ""
    assert "need 1 <= m <= n and n >= 2" in err


def test_exit_code_numerical_health(tmp_path, capsys):
    path = tmp_path / "p2.json"
    run(capsys, "construct", "pauli", "--k", "2", "-o", str(path))
    code, _, err = run(capsys, "angles", str(path), "--tol", "0.4")
    assert code == 2
    assert "ambiguity" in err


@pytest.mark.parametrize("command", ["info", "angles", "check-scheme",
                                     "verify-design"])
def test_non_finite_code_file_is_format_error(tmp_path, capsys, command):
    path = tmp_path / "es.json"
    run(capsys, "construct", "extraspecial", "--p", "3", "--n", "2", "--k",
        "1", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["subspaces"][5][0][0] = [float("nan"), 0.0]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert "non-finite entry" in err and "nan" not in out


@pytest.mark.parametrize("command", ["info", "angles", "gram", "check-scheme",
                                     "verify-design"])
def test_repeated_member_is_refused(tmp_path, capsys, command):
    # a code is a set: a file naming one subspace twice exits 1 at the first
    # pair pass, whichever command forms it
    path = tmp_path / "es.json"
    run(capsys, "construct", "extraspecial", "--p", "3", "--n", "2", "--k",
        "1", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["subspaces"].append(doc["subspaces"][0])
    doc["labels"].append(doc["labels"][0])
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path), "--json")
    assert code == 1
    assert "coincide" in err and out == ""


def test_stray_linalg_error_is_numerical_health(tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "p2.json"
    run(capsys, "construct", "pauli", "--k", "2", "-o", str(path))

    def broken(members, *args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(core_linalg, "_overlap_pass", broken)
    code, _, err = run(capsys, "check-scheme", str(path))
    assert code == 2
    assert "did not converge" in err


@pytest.mark.parametrize("family", [["pauli", "--k", "2"],
                                    ["mub", "--p", "5"]])
def test_check_scheme_runs_the_pair_kernel_once(tmp_path, capsys,
                                                monkeypatch, family):
    # and, at m > 1, forms one W^dagger W per block, for the angles only
    # (the codes here fit one block); at m = 1 the angles are the gram
    path = tmp_path / "code.json"
    run(capsys, "construct", *family, "-o", str(path))
    calls = counting_kernel(monkeypatch)
    forms = []
    square = core_linalg.squared_overlaps
    monkeypatch.setattr(core_linalg, "squared_overlaps",
                        lambda W: forms.append(W.shape) or square(W))
    code, _, _ = run(capsys, "check-scheme", str(path), "--json")
    assert code == 0
    assert len(calls) == 1
    assert len(forms) == (read_code(str(path)).m > 1)


def test_check_scheme_pass_runs_under_pair_angle_matrix(tmp_path, capsys,
                                                        monkeypatch):
    path = tmp_path / "es321.json"
    run(capsys, "construct", "extraspecial", "--p", "3", "--n", "2", "--k",
        "1", "-o", str(path))
    inside, calls = [], []
    angles, kernel = analysis.pair_angle_matrix, core_linalg._overlap_pass

    def traced(S):
        inside.append(True)
        try:
            return angles(S)
        finally:
            inside.pop()

    def counted(bases, form=None):
        gram, out = kernel(bases, form)
        calls.append((pass_form(form, out), bool(inside)))
        return gram, out

    monkeypatch.setattr(analysis, "pair_angle_matrix", traced)
    monkeypatch.setattr(core_linalg, "_overlap_pass", counted)
    code, _, _ = run(capsys, "check-scheme", str(path), "--json")
    assert code == 0
    # one pass, for the angles only, made inside pair_angle_matrix
    assert calls == [("angles", True)]


def test_check_scheme_without_closure_omits_idempotents(tmp_path, capsys):
    path = tmp_path / "es320.json"
    run(capsys, "construct", "extraspecial", "--p", "3", "--n", "2", "--k",
        "0", "-o", str(path))
    code, out, _ = run(capsys, "check-scheme", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_scheme"] is False and "idempotents" not in doc
    assert "intersection_numbers" not in doc
    code, out, _ = run(capsys, "check-scheme", str(path))
    assert code == 0 and "idempotents: not computed" in out


def test_check_scheme_closure_ignores_the_clustering_tol(tmp_path, capsys):
    # mub(11) less one member is not closed (residual 0.0282); a --tol above
    # that residual used to report a scheme with "certified" idempotents
    path = tmp_path / "mub11.json"
    run(capsys, "construct", "mub", "--p", "11", "-o", str(path))
    write_code(Code(read_code(str(path)).bases[1:]), str(path))
    for tol in ("1e-8", "0.03"):
        code, out, _ = run(capsys, "check-scheme", str(path), "--tol", tol,
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_scheme"] is False and doc["classes"] == 3
        assert 0.028 < doc["closure_residual"] < 0.029
        assert "idempotents" not in doc
        assert "intersection_numbers" not in doc


@pytest.mark.parametrize("family, strength", [
    (["pauli", "--k", "2"], 3),
    (["mub", "--p", "5"], 2),
    (["extraspecial", "--p", "3", "--n", "2", "--k", "1"], 2)])
def test_check_scheme_strength_ignores_the_clustering_tol(tmp_path, capsys,
                                                          family, strength):
    # the exact pair averages decide the strength; --tol 0.05 used to pass
    # the nonzero degree-3 and degree-4 averages of mub(5) and es(3,2,1)
    path = tmp_path / "code.json"
    run(capsys, "construct", *family, "-o", str(path))
    for tol in ("1e-8", "0.05"):
        code, out, _ = run(capsys, "check-scheme", str(path), "--tol", tol,
                           "--json")
        assert code == 0
        assert json.loads(out)["idempotents"]["strength"] == strength


def test_check_scheme_irrational_representative_exit_2(tmp_path, capsys):
    # two lines with cos^2 = 1/phi^2: a closed scheme whose one class has no
    # rational representative of denominator <= 2048 within tol
    y = (3 - 5 ** 0.5) / 2
    bases = np.array([[[1.0], [0.0]], [[y ** 0.5], [(1 - y) ** 0.5]]])
    path = tmp_path / "two.json"
    write_code(Code(bases), str(path))
    code, out, err = run(capsys, "check-scheme", str(path), "--json")
    assert code == 2 and out == ""
    assert "class 1" in err and "rational" in err


def test_check_scheme_rationalizes_only_within_the_unique_radius(tmp_path,
                                                                 capsys):
    # 610/1597 is 1.75e-7 from 1/phi^2: inside --tol 1e-6, but outside
    # 1/(2 * 2048^2) = 1.19e-7, the radius within which the nearest rational
    # of denominator <= 2048 is the only one
    y = (3 - 5 ** 0.5) / 2
    bases = np.array([[[1.0], [0.0]], [[y ** 0.5], [(1 - y) ** 0.5]]])
    path = tmp_path / "two.json"
    write_code(Code(bases), str(path))
    code, out, err = run(capsys, "check-scheme", str(path), "--tol", "1e-6")
    assert code == 2 and out == ""
    assert "class 1" in err and "within 1.19e-07" in err


def test_check_scheme_refuses_a_class_spread_beyond_the_radius(tmp_path,
                                                               capsys):
    # --tol 10 chains mub(5)'s 0 and 1/5 pairs into one class whose mean,
    # 5/29, no pair has; it used to be rationalized and reported with
    # "measured design strength 1"
    path = tmp_path / "mub5.json"
    run(capsys, "construct", "mub", "--p", "5", "-o", str(path))
    code, out, err = run(capsys, "check-scheme", str(path), "--tol", "10")
    assert code == 2 and out == ""
    assert "class 1" in err and "spread over 0.2" in err


def test_exit_code_size_limit(capsys):
    code, _, err = run(capsys, "construct", "extraspecial", "--p", "3",
                       "--n", "7", "--k", "1")
    assert code == 3
    assert "exceeds" in err


def test_missing_file_is_validation_error(capsys):
    code, _, err = run(capsys, "info", "/nonexistent/code.json")
    assert code == 1


def test_output_file_option(tmp_path, capsys):
    path = tmp_path / "m3.json"
    run(capsys, "construct", "mub", "--p", "3", "-o", str(path))
    out_path = tmp_path / "angles.txt"
    code, _, _ = run(capsys, "angles", str(path), "-o", str(out_path))
    assert code == 0
    assert "12 subspaces in G(1,3)" in out_path.read_text()


def test_threads_flag_is_accepted_and_deterministic(tmp_path, capsys):
    # --threads and --seed were read by no subcommand and are gone
    path = tmp_path / "m5.json"
    run(capsys, "construct", "mub", "--p", "5", "-o", str(path))
    for flag in ("--threads", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["angles", str(path), flag, "4", "--json"])
        assert exc.value.code == 1
        assert "unrecognized arguments: %s 4" % flag in capsys.readouterr().err
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "angles", str(path), "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_bound_and_table_outputs_match_golden_bytes(tmp_path, capsys):
    # tests/golden_cli.json holds the exact stdout (and the written CSV) of
    # `table` and `bound one-/two-distance` for a fixed set of arguments
    with open(Path(__file__).with_name("golden_cli.json")) as fh:
        golden = json.load(fh)
    assert len(golden) == 39
    for case in golden:
        argv = [str(tmp_path / a) if a == "x.csv" else a for a in case["argv"]]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, case["stdout"], ""), case["argv"]
        if "file" in case:
            assert (tmp_path / "x.csv").read_text() == case["file"]


def test_check_scheme_outputs_match_golden_bytes(tmp_path, capsys):
    # tests/golden_check_scheme.json holds the exact stdout of check-scheme,
    # text and --json, on five codes.  Every value but one comes from exact
    # arithmetic; es(3,2,0)'s closure_residual is a float norm whose last
    # bits may depend on the BLAS, so it alone is compared to 1e-12 relative
    with open(Path(__file__).with_name("golden_check_scheme.json")) as fh:
        golden = json.load(fh)
    assert len(golden) == 10
    path = str(tmp_path / "code.json")
    for case in golden:
        run(capsys, "construct", *case["construct"], "-o", path)
        code, out, err = run(capsys, "check-scheme", path, *case["argv"])
        assert (code, err) == (0, ""), case["argv"]
        want = case["stdout"]
        if "--json" in case["argv"]:
            got_r = json.loads(out)["closure_residual"]
            want_r = json.loads(want)["closure_residual"]
            assert got_r == pytest.approx(want_r, rel=1e-12, abs=0)
            want = want.replace(json.dumps(want_r), json.dumps(got_r))
        assert out == want, (case["construct"], case["argv"])


def _close(got, want, tol=1e-12):
    "the same JSON document, floats within tol absolute"
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= tol
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, tol) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[k], want[k], tol) for k in want))
    return type(got) is type(want) and got == want


def test_angles_outputs_match_golden(tmp_path, capsys):
    # tests/golden_angles.json holds the stdout of `angles`, text and
    # --json, on four codes.  The text and the class sizes compare exactly;
    # the JSON floats to 1e-12 absolute, since a zero class's representative
    # (about 3e-33 on mub(5)) depends on the BLAS
    with open(Path(__file__).with_name("golden_angles.json")) as fh:
        golden = json.load(fh)
    assert len(golden) == 8
    path = str(tmp_path / "code.json")
    for case in golden:
        run(capsys, "construct", *case["construct"], "-o", path)
        code, out, err = run(capsys, "angles", path, *case["argv"])
        assert (code, err) == (0, ""), case["argv"]
        if "--json" not in case["argv"]:
            assert out == case["stdout"], case["construct"]
            continue
        got, want = json.loads(out), json.loads(case["stdout"])
        assert ([c["pairs"] for c in got["classes"]]
                == [c["pairs"] for c in want["classes"]]), case["construct"]
        assert _close(got, want), case["construct"]


def test_verify_design_reports_the_two_design_witness_beyond_its_limit(
        tmp_path, capsys):
    # n^2 = 4225 > TWO_DESIGN_LIMIT: the n^4 witness is not computed, as
    # check-scheme's idempotents are not on an open scheme, and the strength
    # is still reported with exit 0
    path = tmp_path / "c65.json"
    write_code(Code(np.eye(65, dtype=complex)[:4, :, None]), str(path))
    code, out, err = run(capsys, "verify-design", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == ("4 subspaces in G(1,65): design strength 0 "
                        "(tested to t=2)")
    assert lines[-1] == ("mean P(x)P residual: not computed, n^2 = 4225 "
                         "exceeds the limit 4096")
    code, out, err = run(capsys, "verify-design", str(path), "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["strength"] == 0 and doc["design"] == {"1": False, "2": False}
    assert "one_design_residual" in doc and "two_design_residual" not in doc


def test_bound_simplex_size_text(capsys):
    assert run(capsys, "bound", "simplex", "--m", "1", "--n", "3",
               "--k", "4") == (0, "N=4 in G(1,3): simplex alpha >= 1/9, "
                               "orthoplex beta >= 1/3 (simplex regime)\n", "")


@pytest.mark.parametrize("argv, message", [
    (["construct", "pauli"], "construct pauli needs --k"),
    (["construct", "extraspecial", "--p", "3", "--n", "2"],
     "construct extraspecial needs --p --n --k"),
    (["construct", "mub"], "construct mub needs --p"),
    (["bound", "absolute", "--m", "1"], "bound needs --m and --n"),
    (["bound", "one-distance", "--m", "1", "--n", "3"],
     "one-distance bound needs --alpha"),
    (["bound", "two-distance", "--m", "1", "--n", "3", "--alpha", "0"],
     "two-distance bound needs --alpha and --beta"),
    (["bound", "simplex", "--m", "1", "--n", "3"],
     "bound simplex needs --alpha or --k (= N)"),
    (["bound", "design", "--m", "1", "--n", "3"], "bound design needs --t"),
    (["table", "--n", "4"], "table needs --m and --n"),
])
def test_missing_parameter_is_named(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", "error: %s\n" % message)


def test_check_scheme_one_member(tmp_path, capsys):
    path = tmp_path / "one.json"
    write_code(Code(np.eye(4, 2, dtype=complex)[None]), path)
    assert run(capsys, "check-scheme", str(path)) == (
        1, "", "error: need at least 2 members\n")
