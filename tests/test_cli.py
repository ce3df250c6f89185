import json

import numpy as np
import pytest

import grasscode.core_linalg as core_linalg
from grasscode.cli import main
from grasscode.io import read_code

from conftest import counting_kernel


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


def test_stray_linalg_error_is_numerical_health(tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "p2.json"
    run(capsys, "construct", "pauli", "--k", "2", "-o", str(path))

    def broken(members, angles):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(core_linalg, "_overlap_pass", broken)
    code, _, err = run(capsys, "check-scheme", str(path))
    assert code == 2
    assert "did not converge" in err


@pytest.mark.parametrize("family", [["pauli", "--k", "2"],
                                    ["mub", "--p", "5"]])
def test_check_scheme_runs_the_pair_kernel_once(tmp_path, capsys,
                                                monkeypatch, family):
    path = tmp_path / "code.json"
    run(capsys, "construct", *family, "-o", str(path))
    calls = counting_kernel(monkeypatch)
    code, _, _ = run(capsys, "check-scheme", str(path), "--json")
    assert code == 0
    assert len(calls) == 1


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
