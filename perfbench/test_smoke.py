"""The benchmark's smoke mode: the same harness on the acceptance-size codes
(mub p=5, es(3,2,1)), a few seconds per workload.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402


@pytest.mark.parametrize("workload", sorted(bench.SMOKE))
def test_smoke_workload_checks_pass(workload):
    res = bench.run(workload, seed=3, seconds=0.1, trace=0, smoke=True)
    assert res["failed"] == 0 and res["correct"]
    assert set(res["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_wrong_expected_value_raises_error_rate():
    spec = copy.deepcopy(bench.SMOKE["lines"])
    spec["expect"]["classes"] = 4
    res = bench.run("lines", seed=3, seconds=0.1, trace=0, smoke=True,
                    spec=spec)
    assert res["failed"] > 0 and not res["correct"]
    assert res["failed"] / res["attempted"] > 0


def test_zonal_checks_catch_a_wrong_zonal(monkeypatch):
    """A degree-3 zonal shifted by a constant keeps the kernel's value at
    (1,...,1), which normalization fixes; the Jacobi closed form at m = 1
    and the Monte Carlo orthogonality check both catch it."""
    import ops
    from grasscode.sympoly import SymmetricPolynomial
    general = ops.zonal.zonal_general

    def shifted(kappa, m, n, *args, **kwargs):
        Z = general(kappa, m, n, *args, **kwargs)
        Z.poly = Z.poly + SymmetricPolynomial.constant(Z.at_ones() / 10, m)
        return Z

    monkeypatch.setattr(ops.zonal, "zonal_general", shifted)
    spec = bench.SMOKE["zonal"]
    exact = ops.op_exact(spec, 3, None)
    assert exact["kernels_ok"] and exact["expansions_ok"]
    assert not exact["jacobi_ok"]
    assert bench.check("exact", exact, spec["expect"]) is not None
    orth = ops.op_orth(spec, 3, None)
    assert bench.check("orth", orth, spec["expect"]) is not None


def test_traced_smoke_reports_every_layer():
    res = bench.run("zonal", seed=3, seconds=0.1, trace=1, smoke=True)
    assert res["failed"] == 0
    names = set(res["metrics"])
    assert {t + "_s" for t in bench.PER_LAYER_TIMES} <= names
    assert set(bench.PER_LAYER_COUNTS) <= names
    assert "trace.overhead_s" in names and "cli.startup_s" in names
    for t in bench.PER_LAYER_TIMES:
        assert res["metrics"][t + "_s"]["value"] > 0, t


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "zonal", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0
    for line in p.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
