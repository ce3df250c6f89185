"""Dimension counts for the irreducible function spaces on subspace manifolds.

All arithmetic is exact (Python ints); results are exact integers.
"""

from math import comb

from .errors import NotDominant, OutOfRange, PartitionTooLong
from .partitions import aspartition, partitions_up_to


def weyl_dim(lam):
    """Dimension of the U(n) irreducible with highest weight lam.

    lam is a weakly decreasing integer vector of length n (entries may be
    negative).  Product formula: prod_{i<j} (lam_i - lam_j + j - i)/(j - i).
    """
    lam = [int(x) for x in lam]
    n = len(lam)
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise NotDominant("weight not weakly decreasing: %r" % (lam,))
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    assert r == 0
    return q


def dim_H(mu, n):
    """Dimension of the space H_mu of degree-|mu| irreducible functions on
    lines/subspaces of C^n: the U(n) irrep with highest weight
    (mu, 0, ..., 0, -reverse(mu))."""
    mu = aspartition(mu)
    if 2 * len(mu) > n:
        raise PartitionTooLong("need 2*len(mu) <= n, got len %d, n %d" % (len(mu), n))
    lam = mu.pad(n - len(mu)) + [-p for p in reversed(mu.parts)]
    return weyl_dim(lam)


def check_mn(m, n):
    "raise OutOfRange unless G(m,n) is in range: 1 <= m and 2m <= n"
    if not (1 <= m and 2 * m <= n):
        raise OutOfRange("need 1 <= m and 2m <= n, got m=%d n=%d" % (m, n))


def dim_Hk(k, m, n):
    """Dimension of H_k(m,n) = sum of dim H_mu over |mu| <= k, len(mu) <= m."""
    if k < 0:
        raise OutOfRange("k must be >= 0, got %d" % k)
    check_mn(m, n)
    return sum(dim_H(mu, n) for mu in partitions_up_to(k, max_len=m))


def hom_dim_bound(k, n):
    """Generic upper bound C(n^2 + k - 1, k) on dim Hom_k (polynomials of
    degree <= k in the entries of a projection matrix)."""
    if k < 0:
        raise OutOfRange("k must be >= 0, got %d" % k)
    return comb(n * n + k - 1, k)


def q_binomial(n, m, q):
    """Gaussian binomial [n choose m]_q, exact."""
    if not 0 <= m <= n:
        raise OutOfRange("need 0 <= m <= n, got m=%d n=%d" % (m, n))
    if q < 2:
        raise OutOfRange("need q >= 2, got %r" % (q,))
    num = 1
    den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (m - i) - 1
    quot, rem = divmod(num, den)
    assert rem == 0
    return quot
