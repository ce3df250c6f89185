from fractions import Fraction
from math import comb, factorial

import numpy as np

from grasscode.core_linalg import haar_subspace, principal_angles
from grasscode.dims import dim_H
from grasscode.partitions import Partition, partitions_up_to
from grasscode.sympoly import SymmetricPolynomial
from grasscode.zonal import (aggregate_zonal, annihilator_sympoly,
                             expand_in_zonal, mc_function_inner,
                             mc_zonal_inner, normalize_zonal, zonal_basis,
                             zonal_explicit, zonal_general)

from conftest import random_subspace_pair
from zonal_oracle import zonal_recursion

E = Partition(())
P1 = Partition(1)
P2 = Partition(2)
P11 = Partition(1, 1)


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
            y = principal_angles(a, b).values
            tr = sum(y)
            assert abs(z1.evaluate(list(y)) - ((n / m) * tr - m)) < 1e-8


def test_reconstruct_round_trip():
    rng = np.random.default_rng(303)
    for m, n in [(1, 3), (2, 4), (2, 6)]:
        mono = {}
        for lam in partitions_up_to(2, max_len=m):
            mono[lam] = Fraction(int(rng.integers(-5, 6)),
                                 int(rng.integers(1, 7)))
        f = SymmetricPolynomial.from_monomial(m, mono)
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


def test_mc_orthogonality_3_6():
    mus = [E, P1, P2, P11]
    for i, mu in enumerate(mus):
        for nu in mus[i + 1:]:
            est, se = mc_zonal_inner(mu, nu, 3, 6, 200_000, seed=7)
            assert abs(est) < 5 * se, (mu, nu, est, se)


def test_aggregate_reproducing_property():
    m, n = 2, 4
    K = aggregate_zonal(2, m, n)
    a = haar_subspace(n, m, seed=21)
    b = haar_subspace(n, m, seed=22)
    y_ab = list(principal_angles(a, b).values)
    for mu in (P1, P2):
        Z = zonal_explicit(mu, m, n)
        est, se = mc_function_inner(K, Z, a, b, 200_000, seed=23)
        target = float(Z.evaluate(y_ab))
        assert abs(est - target) < 5 * se, (mu, est, target, se)


def test_aggregate_at_ones_counts_dimensions():
    for m, n in [(1, 3), (2, 4), (2, 5)]:
        K = aggregate_zonal(2, m, n)
        total = sum(dim_H(mu, n) for mu in partitions_up_to(2, max_len=m))
        assert K.at_ones() == total


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
