import hashlib
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

import grasscode.sympoly as sympoly
import grasscode.zonal as zonal
from grasscode.bounds import (code_design_exact_size, relative_code_bound,
                              relative_design_bound)
from grasscode.core_linalg import (haar_basis_batch, haar_cosine_batch,
                                   haar_subspace, power_sums,
                                   principal_angles)
from grasscode.dims import dim_H
from grasscode.errors import (NumericalHealthError, OutOfRange,
                              ValidationFailure)
from grasscode.partitions import Partition, partitions_up_to
from grasscode.sympoly import SymmetricPolynomial, _power_basis
from grasscode.zonal import (aggregate_zonal, annihilator_sympoly,
                             expand_in_zonal, kernel_pairing, mc_zonal_inner,
                             normalize_zonal, zonal_basis, zonal_general)

from conftest import random_subspace_pair
from haar_oracle import haar_basis_batch_qr, haar_cosine_batch_bidiagonal
from monomial_oracle import from_monomial
from zonal_oracle import zonal_explicit, zonal_recursion

E = Partition(())
P1 = Partition(1)
P2 = Partition(2)
P11 = Partition(1, 1)

# the nine G(m, n) of the benchmark's degree-6 exact sweep
SWEEP = [(1, 5), (2, 4), (2, 7), (3, 7), (3, 9), (4, 9), (4, 11), (5, 11),
         (6, 13)]


def test_explicit_coefficients():
    for m, n in [(2, 4), (3, 7)]:
        z0 = zonal_explicit(E, m, n)
        assert z0.poly.coeffs == {E: 1}
        z1 = zonal_explicit(P1, m, n)
        assert z1.poly.coeffs == {P1: n, E: -m}
        z2 = zonal_explicit(P2, m, n)
        assert z2.poly.coeffs == {E: m * (m + 1),
                                  P1: -2 * (n + 1) * (m + 1),
                                  P2: (n + 1) * (n + 2)}
        z11 = zonal_explicit(P11, m, n)
        assert z11.poly.coeffs == {E: m * (m - 1),
                                   P1: -2 * (n - 1) * (m - 1),
                                   P11: (n - 1) * (n - 2)}


def test_normalized_value_at_ones_is_dim():
    for m, n in [(1, 3), (2, 4), (2, 5), (3, 6)]:
        for Z in zonal_basis(m, n, 2):
            zn = normalize_zonal(Z)
            assert zn.at_ones() == dim_H(Z.mu, n)


def test_general_formula_proportionality_factors():
    # the hypergeometric recursion times these exact factors gives the
    # printed degree <= 2 forms, which the determinant route reproduces
    for m, n in [(2, 4), (2, 5), (3, 6), (3, 8)]:
        for mu, factor in [(P1, -m * n),
                           (P2, m * (m + 1) * (n + 1) * (n + 2)),
                           (P11, m * (m - 1) * (n - 1) * (n - 2))]:
            assert (zonal_recursion(mu, m, n).scale(factor)
                    == zonal_general(mu, m, n).poly), (m, n, mu)


def test_general_equals_printed_forms():
    for m, n in [(1, 3), (1, 5), (2, 4), (2, 5), (2, 7), (3, 7), (3, 9),
                 (4, 9)]:
        for mu in partitions_up_to(2, max_len=m):
            assert zonal_general(mu, m, n).poly == zonal_explicit(mu, m, n).poly


def test_general_proportional_to_recursion_oracle():
    # the determinant route is scaled to a constant term of sign (-1)^|kappa|,
    # the recursion to a positive one
    for m, n in [(2, 5), (3, 7), (3, 9)]:
        for kappa in partitions_up_to(4, max_len=m):
            if kappa.size < 3:
                continue
            Z = zonal_general(kappa, m, n).poly
            R = zonal_recursion(kappa, m, n)
            factor = Z.coeffs[kappa] / R.coeffs[kappa]
            assert R.scale(factor) == Z, (m, n, kappa)
            assert (factor > 0) == (kappa.size % 2 == 0), (m, n, kappa, factor)


def jacobi_closed_form(k, n, y):
    "P_k^(n-2,0)(2y-1) from the textbook sum over ((x-1)/2)^s ((x+1)/2)^(k-s)"
    return sum(comb(k + n - 2, k - s) * comb(k, s) * (y - 1) ** s * y ** (k - s)
               for s in range(k + 1))


def test_general_on_lines_is_the_jacobi_polynomial():
    # at m = 1 the constant term (-1)^k [1]_(k) = (-1)^k k! fixes the scale
    # against P_k(-1) = (-1)^k
    for n in (3, 5, 8):
        for k in range(7):
            Z = zonal_general((k,), 1, n)
            for j in range(k + 1):
                y = Fraction(j, k + 1)
                assert (Z.evaluate([y])
                        == factorial(k) * jacobi_closed_form(k, n, y)), (n, k, y)


def test_general_positive_at_ones_and_normalizes_to_dim():
    for m, n in [(1, 3), (1, 5), (2, 4), (2, 5), (2, 7), (3, 7), (3, 9),
                 (4, 9)]:
        for kappa in partitions_up_to(4, max_len=m):
            Z = zonal_general(kappa, m, n)
            assert Z.at_ones() > 0, (m, n, kappa)
            assert normalize_zonal(Z).at_ones() == dim_H(kappa, n)


def test_expansion_is_unit_vector():
    rng = np.random.default_rng(301)
    pairs = set()
    while len(pairs) < 10:
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, n // 2 + 1))
        pairs.add((m, n))
    for m, n in sorted(pairs):
        for mu in partitions_up_to(2, max_len=m):
            exp = expand_in_zonal(zonal_explicit(mu, m, n).poly, m, n)
            for nu in partitions_up_to(2, max_len=m):
                want = Fraction(1) if nu == mu else Fraction(0)
                assert exp.coeff(nu) == want


def test_z1_pair_identity():
    rng = np.random.default_rng(302)
    for m, n in [(1, 4), (2, 5), (3, 7)]:
        z1 = zonal_explicit(P1, m, n)
        for _ in range(10):
            a, b = random_subspace_pair(n, m, rng)
            y = principal_angles(a, b)
            tr = sum(y)
            assert abs(z1.evaluate(list(y)) - ((n / m) * tr - m)) < 1e-8


def test_reconstruct_round_trip():
    rng = np.random.default_rng(303)
    for m, n in [(1, 3), (2, 4), (2, 6)]:
        mono = {}
        for lam in partitions_up_to(2, max_len=m):
            mono[lam] = Fraction(int(rng.integers(-5, 6)),
                                 int(rng.integers(1, 7)))
        f = from_monomial(m, mono)
        exp = expand_in_zonal(f, m, n)
        assert exp.reconstruct() == f


def test_degree_gate():
    # degree 3 needs no flag: every degree has the same exact construction
    basis = zonal_basis(2, 5, 3)
    assert [Z.mu.parts for Z in basis] == [(), (1,), (2,), (1, 1), (3,),
                                           (2, 1)]


def test_mc_determinism():
    e1 = mc_zonal_inner(P1, P2, 2, 4, 2000, seed=11)
    e2 = mc_zonal_inner(P1, P2, 2, 4, 2000, seed=11)
    assert e1 == e2
    e3 = mc_zonal_inner(P1, P2, 2, 4, 2000, seed=12)
    assert e1 != e3


def test_mc_draws_follow_the_seeded_svd_route():
    # the same stream as haar_cosine_batch on the same seed, and the centered
    # power sums of the same squared cosines as the SVD of each T (positive
    # semidefinite, so its singular values are its eigenvalues)
    n, m, samples = 6, 2, 500
    T = haar_cosine_batch(n, m, samples, seed=31)
    sv = np.linalg.svd(T, compute_uv=False)
    p = np.concatenate(list(zonal._angle_batch(n, m, samples, 31, 4)))
    assert p.shape == (samples, m)
    assert np.array_equal(p, power_sums(T.copy(), 4))
    y = sv - 0.5
    assert np.abs(p - np.stack([(y ** k).sum(-1) for k in (1, 2)], -1)
                  ).max() < 1e-12


def test_mc_sample_counts():
    m, n = 2, 4
    est, se = mc_zonal_inner(P1, P2, m, n, 1, seed=3)
    assert np.isfinite(est) and se == float("inf")
    for samples in (0, -1):
        with pytest.raises(OutOfRange):
            mc_zonal_inner(P1, P2, m, n, samples)


def _plant(monkeypatch, basis):
    """make the first sample of every block the Haar member `basis`, an
    n x m matrix, as mc_zonal_inner's sampler draws it: the real W^dagger W
    of its top m x m block W (the overlap with I[:, :m]) in place of
    haar_cosine_batch's T"""
    w = basis[:basis.shape[1]]
    with np.errstate(invalid="ignore"):   # a NaN or inf member
        member = (w.conj().T @ w).real
    real = zonal.haar_cosine_batch

    def planted(*args, **kwargs):
        q = real(*args, **kwargs)
        q[0] = member
        return q

    monkeypatch.setattr(zonal, "haar_cosine_batch", planted)


# `which` names the Monte Carlo estimate checked in the test ids: mc_zonal_inner
@pytest.mark.parametrize("which", ["zonal"])
def test_mc_out_of_range_block_raises(which, monkeypatch):
    # one Haar member planted on the fixed subspace, scaled by 1 + 1e-6:
    # its squared cosines are 1 + 2e-6, past the slack, so they must raise
    # instead of being clipped; mc_zonal_inner draws only the squared
    # cosines with the fixed subspace, so the planted T is I_m (1 + 1e-6)^2
    m, n = 2, 4
    _plant(monkeypatch, np.eye(n, m, dtype=complex) * (1 + 1e-6))
    with pytest.raises(NumericalHealthError):
        mc_zonal_inner(P1, P2, m, n, 100, seed=1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("scale", [1 + 1e-6, np.nan, np.inf, 1 + 1e-9])
@pytest.mark.parametrize("which", ["zonal"])
def test_mc_planted_member_range_check(which, scale, m, monkeypatch):
    # the power-sum range check keeps checked_cosines' accept/reject:
    # squared cosines of 1 + 2e-6, NaN or inf raise; 1 + 2e-9 is inside the
    # slack and passes
    n = 2 * m + 1
    with np.errstate(invalid="ignore"):
        _plant(monkeypatch, np.eye(n, m, dtype=complex) * scale)
    if scale == 1 + 1e-9:
        assert all(np.isfinite(mc_zonal_inner(P1, P2, m, n, 100, seed=1)))
    else:
        with pytest.raises(NumericalHealthError):
            mc_zonal_inner(P1, P2, m, n, 100, seed=1)


def test_mc_runs_no_eigen_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigen-solve in the Monte Carlo sampler")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    est, se = mc_zonal_inner(P1, P2, 3, 9, 2000, seed=5)
    assert abs(est) < 5 * se


def test_haar_sampling_runs_no_qr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK QR in the Haar sampler")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    Q = haar_basis_batch(9, 3, 100, seed=1)
    assert np.abs(Q.conj().swapaxes(-1, -2) @ Q - np.eye(3)).max() < 1e-12
    est, se = mc_zonal_inner(P1, P2, 3, 9, 2000, seed=5)
    assert abs(est) < 5 * se


@pytest.mark.parametrize("m, n", [(1, 4), (2, 5), (3, 9)])
def test_mc_estimates_match_the_qr_oracle_sampler(m, n, monkeypatch):
    # the same seeds through the oracle sampler, the bidiagonal built by
    # hand, give the same estimates over three full _MC_BLOCK blocks and a
    # ragged last one, drawn in order from one seeded stream
    samples = 3 * zonal._MC_BLOCK + 17

    def run(cosines):
        draws = []

        def drawn_cosines(n, m, count, rng):
            draws.append((count, rng))
            return cosines(n, m, count, rng)

        monkeypatch.setattr(zonal, "haar_cosine_batch", drawn_cosines)
        est = (mc_zonal_inner(P1, P2, m, n, samples, seed=7)
               + mc_zonal_inner(P2, P2, m, n, samples, seed=8))
        # each estimate: the sample range in order, in blocks of at most
        # _MC_BLOCK, all drawn from one generator
        assert [c for c, _ in draws] == ([zonal._MC_BLOCK] * 3 + [17]) * 2
        for i in (0, 4):
            assert all(rng is draws[i][1] for _, rng in draws[i:i + 4])
        return est

    new = run(haar_cosine_batch)
    old = run(haar_cosine_batch_bidiagonal)
    assert np.abs(np.subtract(new, old)).max() < 1e-12


@pytest.mark.parametrize("same", [False, True])
def test_kernel_pairing_has_the_full_basis_law(same):
    # the exact pairing K(y(a, b)) against a Monte Carlo over full
    # phase-fixed QR bases c, read through the SVDs of a^dagger c and
    # b^dagger c, for a != b and for a = b (K(1, ..., 1), exact); G(2, 9)
    # and G(3, 9), two-sample |z| < 5 at 50,000 samples
    samples = 50_000
    for m, n in [(2, 9), (3, 9)]:
        a = haar_subspace(n, m, seed=41)
        b = a if same else haar_subspace(n, m, seed=42)
        C = haar_basis_batch_qr(n, m, samples, seed=43 + m)
        ya, yb = (np.linalg.svd(s.basis.conj().T @ C, compute_uv=False) ** 2
                  for s in (a, b))
        Z1, Z2, Z11 = (zonal_general(mu, m, n).poly for mu in (P1, P2, P11))
        K = aggregate_zonal(2, m, n)
        A = annihilator_sympoly([Fraction(0), Fraction(1, 3)], m)
        for f, g in [(Z1, Z1), (Z2, Z11), (Z2, Z2), (K, Z2), (A, Z1)]:
            pair = kernel_pairing(f, g, m, n)
            want = float(pair.at_ones() if same
                         else pair.evaluate(list(principal_angles(a, b))))
            v = f.eval_batch(ya) * g.eval_batch(yb)
            z = (v.mean() - want) / (v.std(ddof=1) / samples ** 0.5)
            assert abs(z) < 5, (m, n, f, g, want, v.mean(), z)


@pytest.mark.parametrize("m, n", SWEEP)
def test_kernel_pairing_at_ones_is_the_mc_zonal_inner(m, n):
    # <Z_mu, Z_nu> = K(1, ..., 1), against mc_zonal_inner within 5 standard
    # errors, |mu|, |nu| <= 2, on the nine G(m, n) of the exact sweep
    basis = zonal_basis(m, n, 2)
    for i, Zm in enumerate(basis):
        for Zn in basis[i:]:
            want = float(kernel_pairing(Zm.poly, Zn.poly, m, n).at_ones())
            est, se = mc_zonal_inner(Zm.mu, Zn.mu, m, n, 20_000, seed=m * n)
            assert abs(est - want) <= 5 * se, (m, n, Zm.mu, Zn.mu, est, want)


ZONAL_ENTRIES = {
    "expand_in_zonal": lambda f: expand_in_zonal(f, 2, 5).coeffs,
    "kernel_pairing": lambda f: kernel_pairing(f, f, 2, 5),
    "relative_code_bound": lambda f: relative_code_bound(f, 2, 5),
    "relative_design_bound": lambda f: relative_design_bound(f, 1, 2, 5),
    "code_design_exact_size": lambda f: code_design_exact_size(f, 1, 2, 5),
}


@pytest.mark.parametrize("mu", [E, P1, P2])
@pytest.mark.parametrize("entry", sorted(ZONAL_ENTRIES))
def test_entries_read_a_zonal_polynomial_through_its_poly(entry, mu):
    # zonal_general returns a ZonalPolynomial: each entry that expands f in
    # the zonal basis gives the same result, or the same refusal, for Z as
    # for Z.poly
    def outcome(f):
        try:
            return ZONAL_ENTRIES[entry](f)
        except OutOfRange as exc:
            return type(exc), str(exc)

    Z = zonal_general(mu, 2, 5)
    assert outcome(Z) == outcome(Z.poly)


# pinned rational points per (m, n), dense near y = 1 where the power-sum
# basis cancels most; the float route reads only their power sums, the
# exact route evaluates Jacobi-Trudi determinants
_GRID = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(4, 5),
         Fraction(9, 10), Fraction(19, 20), Fraction(1)]
POWER_SUM_POINTS = {
    (1, 5): [[v] for v in _GRID],
    (2, 4): [[u, v] for i, u in enumerate(_GRID) for v in _GRID[i:]],
    (3, 9): [[u, v, w] for i, u in enumerate(_GRID[2:], 2)
             for j, v in enumerate(_GRID[i:], i) for w in _GRID[j:]],
    (9, 27): [[Fraction(k, 9) for k in range(9)], [Fraction(1, 3)] * 9,
              [Fraction(1)] * 4 + [Fraction(1, 5)] * 5,
              [Fraction(19, 20)] * 9],
}


@pytest.mark.parametrize("mn", sorted(POWER_SUM_POINTS))
def test_power_sum_evaluation_matches_exact(mn):
    m, n = mn
    pts = POWER_SUM_POINTS[mn]
    Y = np.array(pts, dtype=float)
    for Z in zonal_basis(m, n, 6):
        scale = abs(float(Z.at_ones()))
        for y, val in zip(pts, Z.eval_batch(Y)):
            assert abs(val - float(Z.evaluate(y))) <= 1e-13 * scale, (Z.mu, y)


def test_mc_orthogonality_3_6():
    mus = [E, P1, P2, P11]
    for i, mu in enumerate(mus):
        for nu in mus[i + 1:]:
            est, se = mc_zonal_inner(mu, nu, 3, 6, 200_000, seed=7)
            assert abs(est) < 5 * se, (mu, nu, est, se)


def test_aggregate_reproducing_property():
    # the degree-3 kernel reproduces every Z_nu, |nu| <= 3, and itself,
    # exactly, on the nine G(m, n) of the exact sweep
    for m, n in SWEEP:
        K = aggregate_zonal(3, m, n)
        for Z in zonal_basis(m, n, 3):
            assert kernel_pairing(K, Z.poly, m, n) == Z.poly, (m, n, Z.mu)
        assert kernel_pairing(K, K, m, n) == K, (m, n)


def test_aggregate_at_ones_counts_dimensions():
    for m, n in [(1, 3), (2, 4), (2, 5)]:
        K = aggregate_zonal(2, m, n)
        total = sum(dim_H(mu, n) for mu in partitions_up_to(2, max_len=m))
        assert K.at_ones() == total
    for m, n in SWEEP:
        for t in range(7):
            K = aggregate_zonal(t, m, n)
            total = sum(dim_H(mu, n) for mu in partitions_up_to(t, max_len=m))
            assert K.at_ones() == total, (m, n, t)


def _canonical(coeffs):
    "coefficients by sorted partition parts, each as str(Fraction)"
    return ";".join("%s:%s" % (",".join(map(str, sig.parts)), c)
                    for sig, c in sorted(coeffs.items(),
                                         key=lambda kv: kv[0].parts))


def test_exact_sweep_fingerprint():
    # SHA-256 of the degree-6 zonal bases, kernels and the degree-3
    # expansion of the {0, 1/3, 1/2} annihilator over the sweep, recorded
    # when every coefficient was still built and summed as a Fraction
    h = hashlib.sha256()
    roots = [Fraction(0), Fraction(1, 3), Fraction(1, 2)]
    for m, n in SWEEP:
        for Z in zonal_basis(m, n, 6):
            h.update(("Z%d,%d|%s|%s\n" % (m, n, Z.mu.parts,
                                           _canonical(Z.poly.coeffs))).encode())
        K = aggregate_zonal(6, m, n)
        h.update(("K%d,%d|%s\n" % (m, n, _canonical(K.coeffs))).encode())
        e = expand_in_zonal(annihilator_sympoly(roots, m), m, n)
        h.update(("E%d,%d|%s\n" % (m, n, _canonical(e.coeffs))).encode())
    assert h.hexdigest() == ("dbe34cba9e823a75b33543ac3b5901c1"
                             "491ee2b02c4c842c113ab8538c7f8e7a")


def test_power_tables_and_products_fingerprint():
    # SHA-256 of the q_lambda change of basis for d <= 6, m <= 4, of the
    # annihilator of {0, 1/3, 1/2, -2/7} over the sweep and of every product
    # X*_sigma X*_tau, |sigma|, |tau| <= 3, m <= 3, recorded when all three
    # were still built through the monomial basis
    h = hashlib.sha256()
    for m in range(1, 5):
        for d in range(7):
            table = _power_basis(d, m)
            for sig in sorted(table, key=lambda s: s.parts):
                h.update(("P%d,%d|%s|%s\n" % (d, m, sig.parts,
                                              _canonical(table[sig]))).encode())
    roots = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(-2, 7)]
    for m, n in SWEEP:
        f = annihilator_sympoly(roots, m)
        h.update(("A%d,%d|%s\n" % (m, n, _canonical(f.coeffs))).encode())
    for m in (1, 2, 3):
        shapes = partitions_up_to(3, max_len=m)
        for s in shapes:
            for t in shapes:
                p = (SymmetricPolynomial.x_star(s, m)
                     * SymmetricPolynomial.x_star(t, m))
                h.update(("M%d|%s|%s|%s\n" % (m, s.parts, t.parts,
                                              _canonical(p.coeffs))).encode())
    assert h.hexdigest() == ("67d3fe86872827142b6f7b766083aa65"
                             "94696475b34912507d44d4cc371afc84")


def test_power_tables_serve_lower_degrees_from_the_highest(monkeypatch):
    # the rows |sigma| <= d of the degree-6 table, in order, are the table
    # built for d alone
    for m in range(1, 5):
        monkeypatch.setattr(sympoly, "_power_cache", {})
        high = {d: _power_basis(d, m) for d in range(6, -1, -1)}
        for d in range(6):
            monkeypatch.setattr(sympoly, "_power_cache", {})
            fresh = _power_basis(d, m)
            assert list(high[d]) == list(fresh)
            assert all(list(high[d][sig].items()) == list(row.items())
                       for sig, row in fresh.items())


def test_general_coefficients_are_fractions():
    # the construction runs on ints: every coefficient it hands out must
    # still be an exact Fraction, never an int or a float
    for m, n in SWEEP:
        for Z in zonal_basis(m, n, 4):
            assert Z.poly.coeffs
            assert all(type(c) is Fraction for c in Z.poly.coeffs.values()), Z
        assert all(type(c) is Fraction
                   for c in aggregate_zonal(4, m, n).coeffs.values())


_REFUSED = [(zonal_basis, (2, 5, -1)), (aggregate_zonal, (-1, 2, 5)),
            (zonal_basis, (2, 5, True)), (aggregate_zonal, (True, 2, 5)),
            (aggregate_zonal, (False, 2, 5)), (aggregate_zonal, (2.0, 2, 5)),
            (zonal_general, ((1,), True, 5)), (zonal_general, ((1,), 1, True)),
            (zonal_general, ((1,), 2.0, 5)), (zonal_general, ((1,), 2, 5.0)),
            (zonal_basis, (2.0, 5, 2)), (aggregate_zonal, (2, True, 5))]


@pytest.mark.parametrize("fn, args", _REFUSED,
                         ids=["%s%r" % (f.__name__, a) for f, a in _REFUSED])
def test_degree_and_range_checks_refuse_bools_and_non_integers(fn, args):
    # a bool is never read as 0 or 1 and a float m never reaches the
    # construction: each fails as OutOfRange
    with pytest.raises(OutOfRange):
        fn(*args)


def test_integral_degree_and_range_are_accepted():
    i = np.int64
    assert aggregate_zonal(i(3), i(2), i(5)) == aggregate_zonal(3, 2, 5)
    assert ([Z.poly for Z in zonal_basis(i(2), i(5), i(2))]
            == [Z.poly for Z in zonal_basis(2, 5, 2)])
    assert zonal_general((2, 1), i(3), i(9)).poly == zonal_general(
        (2, 1), 3, 9).poly
    # built first from numpy ints, the table is still built on Python ints:
    # no int64 product wraps, and the cache serves the exact table
    zonal._jacobi_table.cache_clear()
    Z = zonal_general((14,), i(1), i(60))
    zonal._jacobi_table.cache_clear()
    assert Z.poly == zonal_general((14,), 1, 60).poly


def test_returned_zonals_do_not_share_the_cached_table():
    # a caller that mutates a returned zonal's coefficients, or replaces its
    # polynomial, changes nothing that a later call returns
    m, n, kappa = 3, 9, Partition(2, 1)
    f = annihilator_sympoly([Fraction(0), Fraction(1, 3), Fraction(1, 2)], m)
    Z = zonal_general(kappa, m, n)
    want = dict(Z.poly.coeffs)
    basis = [Z.poly for Z in zonal_basis(m, n, 3)]
    K = aggregate_zonal(3, m, n)
    e = expand_in_zonal(f, m, n)
    for sig in list(Z.poly.coeffs):
        Z.poly.coeffs[sig] *= 7
    Z.poly.coeffs[Partition(3)] = Fraction(5)
    del Z.poly.coeffs[E]
    Z.poly = Z.poly + SymmetricPolynomial.constant(1, m)
    Z.mu = Partition(1)
    again = zonal_general(kappa, m, n)
    assert list(again.poly.coeffs.items()) == list(want.items())
    assert again.mu == kappa and again.poly is not Z.poly
    assert [Z.poly for Z in zonal_basis(m, n, 3)] == basis
    assert aggregate_zonal(3, m, n) == K
    assert expand_in_zonal(f, m, n).coeffs == e.coeffs
    assert e.reconstruct() == f


def _first_seen(polys, keep):
    "the shapes of `polys` in order of first appearance, those in `keep`"
    order = {}
    for p in polys:
        for sig in p.coeffs:
            order.setdefault(sig, None)
    return [sig for sig in order if sig in keep]


@pytest.mark.parametrize("mn", SWEEP + [(1, 2), (2, 5), (3, 6)])
def test_kernels_and_reconstructions_equal_a_fraction_sum(mn):
    # the oracle: each term scaled as a Fraction polynomial and summed by
    # SymmetricPolynomial.__add__, with no common denominator
    m, n = mn
    for t in range(7):
        basis = zonal_basis(m, n, t)
        normed = [normalize_zonal(Z).poly for Z in basis]
        want = SymmetricPolynomial(m, {})
        for p in normed:
            want = want + p
        K = aggregate_zonal(t, m, n)
        assert K == want, (m, n, t)
        assert list(K.coeffs) == _first_seen(normed, want.coeffs)
        assert all(type(c) is Fraction for c in K.coeffs.values())
        # every third coefficient zero, the others rational multiples
        c = {Z.mu: Fraction(i % 3, 7 + i) * (i % 2 or -1)
             for i, Z in enumerate(basis)}
        scaled = [Z.poly.scale(c[Z.mu]) for Z in basis if c[Z.mu]]
        want = SymmetricPolynomial(m, {})
        for p in scaled:
            want = want + p
        got = zonal.ZonalExpansion(m, n, c, t).reconstruct()
        assert got == want, (m, n, t)
        assert list(got.coeffs) == _first_seen(scaled, want.coeffs)
        assert all(type(v) is Fraction for v in got.coeffs.values())
        got = zonal.ZonalExpansion(m, n, {Z.mu: dim_H(Z.mu, n) / Z.at_ones()
                                          for Z in basis}, t).reconstruct()
        assert got == K


def test_annihilator_and_two_distance_c0():
    m, n = 2, 4
    f = annihilator_sympoly([Fraction(0), Fraction(1)], m)
    # vanishes on the prescribed inner products
    assert f.evaluate([Fraction(0), Fraction(0)]) == 0
    assert f.evaluate([Fraction(1, 2), Fraction(1, 2)]) == 0
    assert f.at_ones() == 2  # (m - 0)(m - 1)
    exp = expand_in_zonal(f, m, n)
    assert exp.c0 == Fraction(1, 15)
    assert f.at_ones() / exp.c0 == 30


def test_annihilator_one_distance():
    for m, alpha in [(1, Fraction(1, 3)), (2, Fraction(1, 2))]:
        f = annihilator_sympoly([alpha], m)
        assert f.degree == 1
        assert f.at_ones() == m - alpha
        y = [alpha / m] * m  # any point with coordinate sum alpha
        assert f.evaluate(y) == 0


def test_expansion_remainder_raises_under_any_interpreter(monkeypatch):
    # a basis missing Z_(1,1) cannot reach X*_(1,1): the remainder check is
    # a raise, not an assert that python -O would delete
    real = zonal.zonal_basis
    monkeypatch.setattr(zonal, "zonal_basis",
                        lambda m, n, t: [Z for Z in real(m, n, t) if Z.mu != P11])
    with pytest.raises(ValidationFailure, match="remainder"):
        expand_in_zonal(SymmetricPolynomial.x_star(P11, 2), 2, 5)
