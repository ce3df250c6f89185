"""End-to-end acceptance checks, one test per headline criterion.

Each test prints a single [PASS]/[FAIL] line (visible with -s or on failure)
and enforces the stated tolerance; pytest -v additionally reports one
PASSED/FAILED line per criterion.
"""

import json
import time
from fractions import Fraction
from math import comb

import numpy as np

from grasscode.analysis import (angle_classes, check_scheme, design_strength,
                                inner_product_set, is_one_design,
                                is_two_design, swap_operator)
from grasscode.bounds import (one_distance_bound, size_from_simplex_alpha,
                              simplex_orthoplex, two_distance_bound)
from grasscode.cli import main
from grasscode.constructions import (enumerate_isotropic, extraspecial_code,
                                     extraspecial_size, isotropic_count,
                                     mub_code)
from grasscode.core_linalg import (canonical_pair, gram_matrix,
                                   haar_basis_batch, principal_angles,
                                   subspace_from_basis)
from grasscode.dims import dim_H, dim_Hk
from grasscode.errors import ValidationFailure
from grasscode.io import read_code
from grasscode.zonal import mc_zonal_inner

from dgs_oracle import dgs_one_distance, dgs_two_distance


def report(num, desc, ok):
    print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def offdiag(S):
    g = gram_matrix(S)
    return g[~np.eye(len(S), dtype=bool)]


def near_set(values, targets, tol):
    t = np.asarray(targets, dtype=float)
    hit = np.abs(np.asarray(values)[:, None] - t[None, :]).min(axis=1)
    return hit.max() < tol and all(
        (np.abs(np.asarray(values) - ti) < tol).any() for ti in t)


def test_c01_pauli_code_size_distances_and_bound(tmp_path, capsys):
    path = tmp_path / "pauli2.json"
    assert main(["construct", "pauli", "--k", "2", "-o", str(path)]) == 0
    capsys.readouterr()
    S = read_code(path)
    ok = (len(S) == 30 and S.m == 2 and S.n == 4
          and near_set(offdiag(S), [0.0, 1.0], 1e-9)
          and two_distance_bound(0, 1, 2, 4).value == 30)
    with capsys.disabled():
        report(1, "pauli k=2: 30 subspaces of G(2,4), {0,1}-code, "
                  "bound(0,1,2,4) = 30", ok)


def test_c02_pauli_angle_classes_and_scheme(pauli2, capsys):
    t0 = time.monotonic()
    R = angle_classes(pauli2, tol=1e-8)
    rep = check_scheme(R)
    elapsed = time.monotonic() - t0
    want = {(1.0, 1.0), (0.0, 0.0), (1.0, 0.0), (0.5, 0.5)}
    got = set()
    for repv in R.reps:
        best = min(want, key=lambda w: max(abs(a - b) for a, b in zip(repv, w)))
        if max(abs(a - b) for a, b in zip(repv, best)) < 1e-8:
            got.add(best)
    ok = (R.n_classes == 4 and got == want and rep.is_scheme
          and rep.closure_residual < 1e-8 and elapsed < 5.0)
    with capsys.disabled():
        report(2, "pauli angle classes {(1,1),(0,0),(1,0),(1/2,1/2)} form a "
                  "scheme in %.2fs" % elapsed, ok)


def test_c03_extraspecial_321(capsys):
    t0 = time.monotonic()
    S = extraspecial_code(3, 2, 1)
    traces = [float(np.trace(s.projection()).real) for s in S]
    vals = offdiag(S)
    elapsed = time.monotonic() - t0
    q = 3
    closed = q * (q ** 4 - 1) // (q - 1)
    ok = (len(S) == 120 and S.n == 9
          and max(abs(t - 3.0) for t in traces) < 1e-8
          and near_set(vals, [0.0, 1.0], 1e-8)
          and extraspecial_size(3, 2, 1) == closed == 120
          and two_distance_bound(0, 1, 3, 9).value == 120
          and elapsed < 60.0)
    with capsys.disabled():
        report(3, "extraspecial (3,2,1): 120 rank-3 projectors, {0,1}-code, "
                  "= bound(0,1,3,9) = 120 in %.2fs" % elapsed, ok)


def test_c04_extraspecial_320_and_isotropic_checks(es320, capsys):
    vals = offdiag(es320)
    ips = inner_product_set(es320, tol=1e-8)
    count_ok = True
    try:
        n1 = len(enumerate_isotropic(3, 2, 1))
        n2 = len(enumerate_isotropic(3, 2, 2))
    except ValidationFailure:
        count_ok = False
        n1 = n2 = -1
    ok = (len(es320) == 360 and es320.m == 1
          and len(ips) == 3
          and near_set(vals, [0.0, 1 / 9.0, 1 / 3.0], 1e-8)
          and count_ok and n1 == 40 and n2 == isotropic_count(3, 2, 2) == 40)
    with capsys.disabled():
        report(4, "extraspecial (3,2,0): 360 lines, distances {0,1/9,1/3}, "
                  "isotropic counts 40/40 self-checked", ok)


def test_c05_mub_meets_bound_and_design(mub5, capsys):
    n = 5
    bound = two_distance_bound(0, Fraction(1, 5), 1, 5)
    strength = design_strength(mub5, t_max=2, tol=1e-8)
    two, resid = is_two_design(mub5, tol=1e-8)
    ok = (len(mub5) == 30
          and near_set(offdiag(mub5), [0.0, 0.2], 1e-8)
          and bound.value == 30 == n * (n + 1) and bound.applicable
          and strength == 2 and two and resid < 1e-8)
    with capsys.disabled():
        report(5, "mub p=5: 30 lines, {0,1/5}-code = bound 30 = n(n+1), "
                  "2-design residual %.1e" % resid, ok)


def test_c06_dimension_formulas(capsys):
    ok = True
    for n in range(4, 13):
        ok &= dim_H((1,), n) == n * n - 1
        ok &= dim_H((2,), n) == n * n * (n - 1) * (n + 3) // 4
        ok &= dim_H((1, 1), n) == n * n * (n + 1) * (n - 3) // 4
        ok &= dim_H((2, 1), n) == (n * n - 1) ** 2 * (n * n - 9) // 9
        for k in range(1, 5):
            ok &= dim_H((k,), n) == comb(n + k - 2, k) ** 2 * (n + 2 * k - 1) // (n - 1)
        for k in range(1, (n + 1) // 2):
            ok &= dim_H((1,) * k, n) == comb(n + 1, k) ** 2 * (n - 2 * k + 1) // (n + 1)
        for m in range(1, n // 2 + 1):
            ok &= dim_Hk(1, m, n) == n * n
        for m in range(2, n // 2 + 1):
            ok &= dim_Hk(2, m, n) == comb(n * n, 2)
    with capsys.disabled():
        report(6, "closed-form irreducible dimensions, n = 4..12, exact", ok)


def test_c07_m1_reductions(capsys):
    rng = np.random.default_rng(901)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 12))
        alpha = Fraction(int(rng.integers(1, 40)), int(rng.integers(41, 99))) / n
        beta = alpha + Fraction(1, int(rng.integers(2, 9)))
        ok &= one_distance_bound(alpha, 1, n).value == dgs_one_distance(alpha, n)
        ok &= (two_distance_bound(alpha, beta, 1, n).value
               == dgs_two_distance(alpha, beta, n))
    for n in range(2, 11):
        ok &= one_distance_bound(Fraction(1, n + 1), 1, n).value == n * n
    with capsys.disabled():
        report(7, "m=1 bounds reduce to the line-packing forms exactly; "
                  "bound(1/(n+1),1,n) = n^2", ok)


def test_c08_simplex_consistency(capsys):
    rng = np.random.default_rng(902)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, n + 1))
        alpha = Fraction(m * m, n) * Fraction(int(rng.integers(1, 30)),
                                              int(rng.integers(31, 80)))
        ok &= (size_from_simplex_alpha(alpha, m, n)
               == one_distance_bound(alpha, m, n).value)
    ok &= simplex_orthoplex(16, 2, 4).simplex_alpha == Fraction(14, 15)
    ok &= size_from_simplex_alpha(Fraction(14, 15), 2, 4) == 16
    with capsys.disabled():
        report(8, "simplex threshold inverts to the one-distance bound; "
                  "alpha(N=16; G(2,4)) = 14/15", ok)


def test_c09_monte_carlo_oracles(capsys):
    t0 = time.monotonic()
    n, m = 4, 2
    B = haar_basis_batch(n, m, 10_000, seed=903)
    P = np.einsum("ink,imk->inm", B, B.conj())
    mean_p = P.mean(axis=0)
    res_a = float(np.abs(mean_p - (m / n) * np.eye(n)).max())

    mean_pp = np.einsum("iac,ibd->abcd", P, P).reshape(n * n, n * n) / len(P)
    target = (m / (n * (n * n - 1))) * ((n * m - 1) * np.eye(n * n)
                                        + (n - m) * swap_operator(n))
    res_b = float(np.abs(mean_pp - target).max())

    ortho_ok = True
    worst = 0.0
    mus = [(), (1,), (2,), (1, 1)]
    for mm, nn in [(2, 4), (2, 5)]:
        for i, mu in enumerate(mus):
            for nu in mus[i + 1:]:
                est, se = mc_zonal_inner(mu, nu, mm, nn, 200_000, seed=904)
                worst = max(worst, abs(est) / (5 * se))
                ortho_ok &= abs(est) < 5 * se
    elapsed = time.monotonic() - t0
    ok = res_a < 2e-2 and res_b < 2e-2 and ortho_ok and elapsed < 180.0
    with capsys.disabled():
        report(9, "Haar sampling: mean projector %.1e, mean P(x)P %.1e "
                  "(both < 2e-2), zonal orthogonality worst %.2f of the 5:stderr "
                  "budget, %.0fs" % (res_a, res_b, worst, elapsed), ok)


def test_c10_property_suites_and_canonical_pairs(capsys):
    rng = np.random.default_rng(905)
    n, m = 6, 2
    ok = True
    worst = 0.0
    for _ in range(100):
        a = subspace_from_basis(rng.standard_normal((n, m))
                                + 1j * rng.standard_normal((n, m)))
        b = subspace_from_basis(rng.standard_normal((n, m))
                                + 1j * rng.standard_normal((n, m)))
        A, Bc = canonical_pair(a, b)
        y = principal_angles(a, b)
        expect_a = np.zeros((n, m), dtype=complex)
        expect_a[:m, :m] = np.eye(m)
        expect_b = np.zeros((n, m), dtype=complex)
        expect_b[:m, :m] = np.diag(np.sqrt(y))
        expect_b[m:2 * m, :m] = np.diag(np.sqrt(1 - y))
        resid = max(float(np.abs(A - expect_a).max()),
                    float(np.abs(Bc - expect_b).max()))
        worst = max(worst, resid)
        ok &= resid < 1e-8
    with capsys.disabled():
        report(10, "canonical pair reconstruction on 100 random pairs in "
                   "G(2,6): worst residual %.1e (< 1e-8); module property "
                   "suites run in this same session" % worst, ok)
