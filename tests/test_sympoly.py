from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grasscode.sympoly as sympoly
from grasscode.errors import (InexactCoefficient, LengthExceedsVariables,
                              ValidationError, VariableCountMismatch)
from grasscode.partitions import Partition, partitions_up_to
from grasscode.sympoly import (SymmetricPolynomial, ascending_product,
                               hypergeom_coeff, schur_norm)
from grasscode.zonal import annihilator_sympoly, zonal_basis

from monomial_oracle import from_monomial, kostka_row, to_monomial
from schur_oracle import schur_eval_bialternant
from zonal_oracle import gen_binomial, shift_ones


def frac(rng, lo=-9, hi=9, den=9):
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den + 1)))


def random_poly(rng, m, deg):
    mono = {}
    for lam in partitions_up_to(deg, max_len=m):
        if rng.random() < 0.6:
            mono[lam] = frac(rng)
    return mono


def test_kostka_values():
    # K_{sigma, lambda} classics
    row21 = kostka_row(Partition(2, 1), 3)
    assert row21[Partition(2, 1)] == 1
    assert row21[Partition(1, 1, 1)] == 2
    row2 = kostka_row(Partition(2), 2)
    assert row2[Partition(2)] == 1
    assert row2[Partition(1, 1)] == 1
    row111 = kostka_row(Partition(1, 1, 1), 3)
    assert row111 == {Partition(1, 1, 1): 1}


def test_schur_norm_at_ones():
    # X_sigma(1,...,1) = number of SSYT = sum of Kostka row
    assert schur_norm(Partition(1), 2) == 2
    assert schur_norm(Partition(2, 1), 3) == 8
    assert schur_norm(Partition(1, 1), 3) == 3


def test_x_star_is_one_at_ones():
    for m in (1, 2, 3):
        for sig in partitions_up_to(3, max_len=m):
            p = SymmetricPolynomial.x_star(sig, m)
            assert p.at_ones() == 1


def test_monomial_round_trip_50_random():
    rng = np.random.default_rng(201)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        mono = random_poly(rng, m, 4)
        p = from_monomial(m, mono)
        back = to_monomial(p)
        mono = {k: v for k, v in mono.items() if v != 0}
        assert back == mono


def test_evaluate_matches_monomial_expansion():
    rng = np.random.default_rng(202)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        mono = random_poly(rng, m, 3)
        p = from_monomial(m, mono)
        y = [frac(rng) for _ in range(m)]
        direct = Fraction(0)
        for lam, c in mono.items():
            e = lam.pad(m)
            orbit = set()
            from itertools import permutations
            for perm in permutations(e):
                orbit.add(perm)
            direct += c * sum(
                Fraction(1) * np.prod([Fraction(yi) ** pi
                                       for yi, pi in zip(y, perm)])
                for perm in orbit)
        assert p.evaluate(y) == direct


def test_mul_is_pointwise():
    rng = np.random.default_rng(203)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        p = from_monomial(m, random_poly(rng, m, 2))
        q = from_monomial(m, random_poly(rng, m, 2))
        y = [frac(rng) for _ in range(m)]
        assert (p * q).evaluate(y) == p.evaluate(y) * q.evaluate(y)


def test_shift_ones_matches_translated_evaluation():
    rng = np.random.default_rng(204)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        p = from_monomial(m, random_poly(rng, m, 3))
        y = [frac(rng) for _ in range(m)]
        shifted = shift_ones(p)
        assert shifted.evaluate(y) == p.evaluate([yi + 1 for yi in y])


def test_eval_batch_matches_scalar():
    rng = np.random.default_rng(205)
    p = from_monomial(2, random_poly(rng, 2, 3))
    Y = rng.random((40, 2))
    batch = p.eval_batch(Y)
    for row, val in zip(Y, batch):
        assert abs(p.evaluate(list(row)) - val) < 1e-12


def schur_ssyt(shape, m, y):
    # brute-force Schur evaluation as the generating sum over semistandard
    # tableaux: rows weakly increase, columns strictly increase
    shape = [s for s in shape if s > 0]
    cells = [(r, c) for r, s in enumerate(shape) for c in range(s)]
    total = Fraction(0)
    tab = {}

    def rec(k, weight):
        nonlocal total
        if k == len(cells):
            total += weight
            return
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, tab[(r, c - 1)])
        if r > 0:
            lo = max(lo, tab[(r - 1, c)] + 1)
        for v in range(lo, m + 1):
            tab[(r, c)] = v
            rec(k + 1, weight * y[v - 1])

    rec(0, Fraction(1))
    return total


def test_exact_evaluation_never_reads_the_power_tables(monkeypatch):
    # the exact route is the oracle for the float route, so it must not go
    # through the change of basis that the float route reads
    def refuse(d, m):
        raise AssertionError("exact evaluation read _power_basis(%d, %d)"
                             % (d, m))

    monkeypatch.setattr(sympoly, "_power_basis", refuse)
    half, third = Fraction(1, 2), Fraction(1, 3)
    for m, n in [(1, 5), (2, 4), (3, 7)]:
        points = [[Fraction(1)] * m, [half] * m, [third] * (m - 1) + [half],
                  [half] * (m - 1) + [0]]
        for Z in zonal_basis(m, n, 4):
            for y in points:
                brute = sum(c * schur_ssyt(sig.parts, m, y) / schur_norm(sig, m)
                            for sig, c in Z.poly.coeffs.items())
                assert Z.evaluate(y) == brute, (m, n, Z.mu, y)
    with pytest.raises(AssertionError):
        SymmetricPolynomial.x_star((1,), 2).to_power_sums()


def test_bialternant_matches_tableau_sum():
    rng = np.random.default_rng(206)
    shapes = [Partition(1), Partition(2), Partition(1, 1), Partition(2, 1),
              Partition(3, 1)]
    for sig in shapes:
        m = max(2, len(sig))
        for _ in range(5):
            y = [frac(rng) for _ in range(m)]
            assert schur_eval_bialternant(sig, m, y) == schur_ssyt(sig, m, y)


def test_bialternant_confluent_points():
    # repeated coordinates exercise the divided-difference rows
    sig = Partition(2, 1)
    for y in ([Fraction(1, 2)] * 3,
              [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)],
              [Fraction(2), Fraction(2), Fraction(2)]):
        assert schur_eval_bialternant(sig, 3, y) == schur_ssyt(sig, 3, y)
    # all-ones counts the tableaux: 8 of shape (2,1) on three letters
    assert schur_eval_bialternant(sig, 3, [Fraction(1)] * 3) == 8


def test_ascending_product_and_hypergeom():
    assert ascending_product(3, 4) == 3 * 4 * 5 * 6
    assert ascending_product(Fraction(1, 2), 2) == Fraction(3, 4)
    assert ascending_product(5, 0) == 1
    # [a]_sigma with sigma = (2,1): (a)_2 * (a-1)_1
    a = Fraction(7, 2)
    assert hypergeom_coeff(a, (2, 1)) == a * (a + 1) * (a - 1)


def test_hypergeom_stays_exact():
    # an int argument stays an int, anything else becomes an exact Fraction
    for a in (0, 3, 7, -2):
        for sigma in ((), (1,), (2, 1), (3, 2, 2), (6,)):
            val = hypergeom_coeff(a, sigma)
            assert type(val) is int
            assert val == hypergeom_coeff(Fraction(a), sigma)
    assert type(ascending_product(5, 0)) is int
    assert type(ascending_product(Fraction(5), 0)) is Fraction
    assert type(hypergeom_coeff(Fraction(7, 2), ())) is Fraction
    # a float is refused by the exact-scalar rule, never read as its binary
    # value; the exact value of that float is accepted as a Fraction
    x = 0.1
    with pytest.raises(InexactCoefficient):
        hypergeom_coeff(x, (2, 1))
    assert hypergeom_coeff(Fraction(x), (2, 1)) == (
        Fraction(x) * (Fraction(x) + 1) * (Fraction(x) - 1))
    assert ascending_product(Fraction(-3, 2), 3) == Fraction(3, 8)
    assert hypergeom_coeff(9, (2, 1, 1)) == 9 * 10 * 8 * 7


def test_gen_binomial_low_degree():
    # frozen small cases
    assert gen_binomial((2,), (1,), 2) == 2
    assert gen_binomial((1, 1), (1,), 2) == 2
    assert gen_binomial((1,), (1,), 2) == 1
    for kap in [(1,), (2,), (1, 1), (2, 1)]:
        assert gen_binomial(kap, (), 3) == 1
        assert gen_binomial(kap, kap, 3) == 1


def test_too_long_partition_raises():
    with pytest.raises(LengthExceedsVariables):
        SymmetricPolynomial.x_star((1, 1, 1), 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
def test_xstar_products_stay_exact(m, d1, d2):
    shapes1 = [s for s in partitions_up_to(d1, max_len=m) if s.size == d1]
    shapes2 = [s for s in partitions_up_to(d2, max_len=m) if s.size == d2]
    if not shapes1 or not shapes2:
        return
    p = SymmetricPolynomial.x_star(shapes1[0], m)
    q = SymmetricPolynomial.x_star(shapes2[0], m)
    prod = p * q
    assert prod.degree <= d1 + d2
    # product of normalized Schurs is 1 at the all-ones point
    assert prod.at_ones() == 1


@pytest.mark.parametrize("c", [0.1, 0.5, np.float64(0.5), np.float32(2.0),
                               1j, complex(1, 0), np.complex128(1)])
def test_float_coefficients_refused(c):
    # a float would enter the exact layer as its binary Fraction
    # (0.1 -> 3602879701896397/36028797018963968): every way in refuses it
    assert issubclass(InexactCoefficient, ValidationError)
    p = SymmetricPolynomial.x_star((1,), 2)
    for make in (lambda: SymmetricPolynomial.constant(c, 1),
                 lambda: SymmetricPolynomial(2, {(1,): c}),
                 lambda: from_monomial(2, {(1,): c}),
                 lambda: p.scale(c), lambda: p * c, lambda: p + c,
                 lambda: annihilator_sympoly([0, c], 2)):
        with pytest.raises(InexactCoefficient):
            make()


def test_exact_coefficients_accepted():
    for c, want in [(3, Fraction(3)), (np.int64(3), Fraction(3)),
                    (Fraction(1, 3), Fraction(1, 3)), ("1/3", Fraction(1, 3)),
                    ("0.1", Fraction(1, 10))]:
        assert SymmetricPolynomial.constant(c, 1).coeffs == {Partition(()): want}
        assert SymmetricPolynomial.x_star((1,), 1).scale(c).coeffs == {
            Partition(1): want}


def test_power_sum_coefficients_evaluate_exactly():
    # the cached change of basis, read back exactly: sum c_lam prod q_lam_i,
    # q_k = sum (y_i - 1/2)^k, at rational points equals the Jacobi-Trudi
    # evaluation, at every degree <= 5
    rng = np.random.default_rng(206)
    for m in (1, 2, 3, 4):
        for sig in partitions_up_to(5, max_len=m):
            p = SymmetricPolynomial.x_star(sig, m)
            power = p.to_power_sums()
            assert all(max(lam.parts, default=0) <= m for lam in power)
            y = [frac(rng, 0, 9) for _ in range(m)]
            ps = [sum((v - Fraction(1, 2)) ** k for v in y)
                  for k in range(m + 1)]
            got = sum(c * np.prod([ps[k] for k in lam.parts], dtype=object)
                      for lam, c in power.items())
            assert got == p.evaluate(y), (sig, m)


def test_eval_power_sums_needs_enough_sums():
    p = SymmetricPolynomial.x_star((2, 1), 3)
    with pytest.raises(VariableCountMismatch):
        p.eval_power_sums(np.ones((4, 2)))
    # at y = (1, 1, 1) the centered sums are 3 / 2^k and X* is 1
    q = np.tile(3 / 2.0 ** np.arange(1, 4), (4, 1))
    assert p.eval_power_sums(q) == pytest.approx(1.0)
