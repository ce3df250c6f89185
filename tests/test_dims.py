from fractions import Fraction
from math import comb

import numpy as np
import pytest

from grasscode.dims import (_dim_H, check_integer, check_mn, dim_H, dim_Hk,
                            hom_dim_bound, q_binomial, weyl_dim)
from grasscode.errors import OutOfRange, PartitionTooLong
from grasscode.partitions import Partition, partitions_up_to


def test_closed_forms_sweep():
    for n in range(4, 13):
        assert dim_H((1,), n) == n * n - 1
        assert dim_H((2,), n) == n * n * (n - 1) * (n + 3) // 4
        assert dim_H((1, 1), n) == n * n * (n + 1) * (n - 3) // 4
        assert dim_H((2, 1), n) == (n * n - 1) ** 2 * (n * n - 9) // 9
        for k in range(1, 6):
            assert (dim_H((k,), n)
                    == comb(n + k - 2, k) ** 2 * (n + 2 * k - 1) // (n - 1))
        for k in range(1, (n + 1) // 2):
            assert (dim_H((1,) * k, n)
                    == comb(n + 1, k) ** 2 * (n - 2 * k + 1) // (n + 1))


def test_dim_hk_line_sum():
    for n in range(3, 11):
        expected = 1 + (n * n - 1) + n * n * (n - 1) * (n + 3) // 4
        assert dim_Hk(2, 1, n) == expected


def test_dim_hk_exact_small_degrees():
    for n in range(2, 9):
        for m in range(1, n // 2 + 1):
            assert dim_Hk(0, m, n) == 1
            assert dim_Hk(1, m, n) == n * n
    for n in range(4, 11):
        for m in range(2, n // 2 + 1):
            assert dim_Hk(2, m, n) == comb(n * n, 2)


def test_weyl_dim_trivial_rep():
    for n in range(2, 7):
        assert weyl_dim([0] * n) == 1
    # the adjoint of U(4): weight (1,0,0,-1)
    assert weyl_dim([1, 0, 0, -1]) == 15


def test_weyl_dim_needs_dominant():
    with pytest.raises(Exception):
        weyl_dim([0, 1])


def test_hom_dim_bound():
    for n in range(2, 7):
        for k in range(0, 5):
            assert hom_dim_bound(k, n) == comb(n * n + k - 1, k)


def test_q_binomial_values():
    assert q_binomial(4, 2, 2) == 35
    assert q_binomial(3, 1, 3) == 13
    assert q_binomial(3, 2, 3) == 13
    assert q_binomial(5, 0, 7) == 1
    # the product formula is 0/0 at q = 1, so that case is rejected
    with pytest.raises(OutOfRange):
        q_binomial(6, 3, 1)


def test_q_binomial_symmetry():
    for n in range(1, 7):
        for m in range(0, n + 1):
            for q in (2, 3, 5):
                assert q_binomial(n, m, q) == q_binomial(n, n - m, q)


def test_dim_h_positive_and_monotone_in_n():
    for mu in [(1,), (2,), (1, 1), (2, 1), (3,)]:
        dims = [dim_H(mu, n) for n in range(len(mu) + 3, 12)]
        assert all(d > 0 for d in dims)
        assert dims == sorted(dims)


def test_bad_inputs():
    with pytest.raises(OutOfRange):
        dim_Hk(-1, 1, 4)
    # a bool or non-integral degree, m or n is refused, never read as 0 or 1
    for k, m, n in [(True, 1, 4), (1.0, 1, 4), (1, True, 4), (1, 1.0, 4),
                    (1, 1, 4.0), (2, 1, False)]:
        with pytest.raises(OutOfRange):
            dim_Hk(k, m, n)
    for k in (-1, True, 2.0):
        with pytest.raises(OutOfRange):
            hom_dim_bound(k, 3)
    for m, n in [(True, 5), (2.0, 5), (2, 5.0), (Fraction(2), 5)]:
        with pytest.raises(OutOfRange):
            check_mn(m, n)
    for t in (-1, True, False, 1.0, Fraction(1), "1"):
        with pytest.raises(OutOfRange):
            check_integer(t, "t")
    check_mn(np.int64(2), np.int64(5))
    assert check_integer(np.int64(0), "t") == 0
    assert dim_Hk(np.int64(2), np.int64(1), np.int64(4)) == dim_Hk(2, 1, 4)
    with pytest.raises(Exception):
        dim_H((1, 1, 1, 1, 1), 4)  # partition longer than n


def _weyl_all_pairs(lam):
    "the Weyl product over every pair i < j, equal weights included"
    out = Fraction(1)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            out *= Fraction(lam[i] - lam[j] + j - i, j - i)
    return out


def test_dim_h_is_the_weyl_product_of_the_padded_weight():
    # dim_H and weyl_dim pair only unequal weights; the oracle pairs all
    for n in range(17):
        for mu in partitions_up_to(8, max_len=n // 2):
            lam = mu.pad(n - len(mu)) + [-p for p in reversed(mu.parts)]
            assert dim_H(mu, n) == weyl_dim(lam) == _weyl_all_pairs(lam), \
                (mu, n)
    for lam in ([3, 3, 1, 1, 0, -2, -2], [2, 2, 2], [5, 0, 0, 0],
                [0, 0, -1, -1, -1], [4, 2, 2, 2, -3], [7]):
        assert weyl_dim(lam) == _weyl_all_pairs(lam), lam
    for mu in partitions_up_to(7, max_len=5):     # Schur norms
        assert weyl_dim(mu.pad(5)) == _weyl_all_pairs(mu.pad(5)), mu


def test_dim_h_refusals():
    for mu, n in [((1, 1, 1), 5), ((1,), 1), ((2, 1), 3), ((1,), 0)]:
        with pytest.raises(PartitionTooLong):
            dim_H(mu, n)
    for n in (True, False, 4.0, Fraction(4), -1, "4", None):
        with pytest.raises(OutOfRange):
            dim_H((1,), n)
    for mu in [(1, 2), (-1,), (1.5,)]:
        with pytest.raises(OutOfRange):
            dim_H(mu, 6)


def test_dim_h_caches_a_numpy_n_under_the_int():
    mu = (3, 2, 1)
    d = dim_H(mu, np.int64(37))
    assert type(d) is int and d == dim_H(mu, 37)
    before = _dim_H.cache_info()
    assert dim_H(Partition(mu), np.int32(37)) == dim_H(mu, 37) == d
    after = _dim_H.cache_info()
    assert after.currsize == before.currsize
    assert after.hits == before.hits + 2
